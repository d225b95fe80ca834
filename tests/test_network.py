import numpy as np
import pytest

from relaybf.adaptation import BeamVector, ConstraintKind
from relaybf.channel import (ChannelRealization, PathLoss, complex_normal,
                             sample_static_rayleigh)
from relaybf.network import (CompoundParams, NetworkParams, compound_params,
                             ideal_relay_gains, objective_power, objective_snr,
                             relay_gain, simulate_symbols)
from relaybf import network


def _sum_vec(w):
    return BeamVector(w, ConstraintKind.SUM_POWER)


def test_network_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        NetworkParams(2, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        NetworkParams(2, 1.0, 1.0, -0.1)
    NetworkParams(2, 1.0, 1.0, 0.0)  # noiseless diagnostics allowed


def test_relay_gain_ideal_value():
    params = NetworkParams(1, 2.0, 3.0, 0.5)
    # denom = 2*|1+1j|^2 + 0.5 = 4.5
    assert relay_gain(params, 1.0 + 1.0j) == pytest.approx(
        0.8164965809277260, rel=1e-12)


def test_relay_gain_measured_value():
    params = NetworkParams(1, 1.0, 2.0, 0.1)
    assert relay_gain(params, 0.0, mode="measured", measured_power=4.0) \
        == pytest.approx(0.7071067811865476, rel=1e-12)


def test_relay_gain_errors():
    params = NetworkParams(1, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        relay_gain(params, 0.0)  # zero receive power
    with pytest.raises(ValueError):
        relay_gain(params, 1.0, mode="measured")
    with pytest.raises(ValueError):
        relay_gain(params, 1.0, mode="bogus")


def test_ideal_relay_gains_matches_scalar():
    params = NetworkParams(3, 1.5, 2.0, 0.2)
    chan = ChannelRealization([1.0, 0.5j, -0.3 + 0.4j], [1.0, 1.0, 1.0])
    vec = ideal_relay_gains(params, chan)
    ref = [relay_gain(params, h_i) for h_i in chan.h]
    np.testing.assert_allclose(vec, ref, rtol=1e-14)


def test_compound_params_values():
    params = NetworkParams(2, 4.0, 1.0, 0.1)
    chan = ChannelRealization([1.0 + 1.0j, 2.0], [0.5j, 1.0 - 1.0j])
    cp = compound_params(params, chan, [2.0, 3.0])
    np.testing.assert_allclose(cp.gbar, [1.0j, 3.0 - 3.0j], atol=1e-15)
    np.testing.assert_allclose(cp.hbar, [-2.0 + 2.0j, 12.0 - 12.0j],
                               atol=1e-13)


def test_compound_params_rejects_mismatched_alphas():
    params = NetworkParams(2, 1.0, 1.0, 0.1)
    chan = ChannelRealization([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        compound_params(params, chan, [1.0])


def test_noiseless_chain_equals_compound_model():
    params = NetworkParams(3, 2.0, 1.5, 0.0)
    rng = np.random.default_rng(0)
    chan = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    alphas = ideal_relay_gains(params, chan)
    cp = compound_params(params, chan, alphas)
    w = _sum_vec(np.array([0.6, 0.8j, 0.0]))
    symbols = np.array([1.0, -1.0, 1.0j, 0.5 - 0.5j])
    y = simulate_symbols(params, chan, alphas, w, symbols, rng)
    expected = np.vdot(w.w, cp.hbar) * symbols
    np.testing.assert_allclose(y, expected, rtol=1e-12)


def test_average_relay_transmit_power_matches_budget():
    # E|r_i|^2 = |w_i|^2 * P when alpha absorbs the expected receive power.
    params = NetworkParams(3, 2.0, 1.7, 0.3)
    chan = ChannelRealization([0.9 + 0.2j, -0.4j, 1.3], [1.0, 1.0, 1.0])
    alphas = ideal_relay_gains(params, chan)
    w = _sum_vec(np.array([0.5, 1.0j, -0.8 + 0.1j]))
    rng = np.random.default_rng(7)
    n = 200_000
    s = np.sign(rng.standard_normal(n) + 0.5)
    h = np.asarray(chan.h)[:, None]
    x = np.sqrt(params.source_power) * h * s \
        + complex_normal(rng, (3, n), params.noise_power)
    r = np.conj(w.w)[:, None] * alphas[:, None] * x
    np.testing.assert_allclose(np.mean(np.abs(r) ** 2, axis=1),
                               np.abs(w.w) ** 2 * params.relay_power,
                               rtol=0.02)


def test_noise_statistics_of_received_symbols():
    params = NetworkParams(2, 1.0, 1.0, 0.04)
    chan = ChannelRealization([1.0, -1.0j], [0.5, 1.0])
    alphas = np.array([1.2, 0.7])
    cp = compound_params(params, chan, alphas)
    w = _sum_vec(np.array([0.8, 0.6j]))
    rng = np.random.default_rng(2)
    symbols = np.ones(200_000)
    y = simulate_symbols(params, chan, alphas, w, symbols, rng)
    resid = y - np.vdot(w.w, cp.hbar)
    expected_var = params.noise_power * (
        1.0 + np.sum(np.abs(w.w) ** 2 * np.abs(cp.gbar) ** 2))
    assert np.mean(np.abs(resid) ** 2) == pytest.approx(expected_var, rel=0.02)
    assert abs(resid.mean()) < 3e-3


def test_objective_power_and_snr_values():
    cp = CompoundParams([1.0, 1.0j], [1.0, -1.0])
    w = _sum_vec(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert objective_power(w, cp) == pytest.approx(1.0, rel=1e-12)
    assert objective_snr(w, cp, 0.5) == pytest.approx(1.0, rel=1e-12)
    peak = _sum_vec(np.array([1.0, 0.0]))
    assert objective_power(peak, cp) == pytest.approx(1.0, rel=1e-12)
    assert objective_snr(peak, cp, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_objective_snr_requires_positive_noise():
    cp = CompoundParams([1.0], [1.0])
    w = _sum_vec(np.array([1.0]))
    with pytest.raises(ValueError):
        objective_snr(w, cp, 0.0)


def test_batched_kernels_match_scalar_objectives():
    rng = np.random.default_rng(3)
    hbar = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    gbar = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    batch_p = network._signal_power(w, hbar)
    batch_s = network._snr(w, hbar, gbar, 0.3)
    for i in range(50):
        cp = CompoundParams(hbar[i], gbar[i])
        bv = _sum_vec(w[i])
        assert batch_p[i] == pytest.approx(objective_power(bv, cp), rel=1e-12)
        assert batch_s[i] == pytest.approx(objective_snr(bv, cp, 0.3),
                                           rel=1e-12)
