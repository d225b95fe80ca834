import numpy as np
import pytest

from relaybf.adaptation import BeamVector, ConstraintKind
from relaybf.channel import PathLoss, complex_normal, sample_static_rayleigh
from relaybf.network import (CompoundParams, combine, compound, ideal_compound,
                             objective_power, objective_snr, relay_gains,
                             relay_receive)
from relaybf import network


def _sum_vec(w):
    return BeamVector(w, ConstraintKind.SUM_POWER)


def test_relay_gain_ideal_value():
    # ideal: P=3 over Ps*|1+1j|^2 + N0 = 2*2 + 0.5 = 4.5, with sqrt(Ps) in h;
    # at g = 1 the noise-forwarding gain is the relay gain
    _, gbar = ideal_compound(np.sqrt(2.0) * np.array([1.0 + 1.0j]),
                             np.ones(1), 3.0, 0.5)
    assert gbar[0] == pytest.approx(0.8164965809277260, rel=1e-12)
    assert relay_gains(3.0, 4.5) == pytest.approx(0.8164965809277260,
                                                  rel=1e-12)


def test_relay_gain_measured_value():
    # measured: P=2 over a measured receive power of 4
    assert relay_gains(2.0, 4.0) == pytest.approx(0.7071067811865476,
                                                  rel=1e-12)


def test_measured_gains_forward_exactly_the_budget():
    # alpha set from the measured mean |x|^2 makes each relay forward
    # exactly its budget P over the interval, whatever it received
    rng = np.random.default_rng(6)
    h = complex_normal(rng, (4, 50, 3))
    s = 1.0 - 2.0 * rng.integers(0, 2, size=(4, 50))
    x, measured = relay_receive(h, s, complex_normal(rng, (4, 50, 3), 0.3))
    for budget in (1.0, 1.0 / 3):
        alphas = relay_gains(budget, measured)
        forwarded = np.mean(np.abs(alphas[..., None, :] * x) ** 2, axis=-2)
        np.testing.assert_allclose(forwarded, budget, rtol=1e-13)


def test_compound_values():
    # source power 4 enters as sqrt(4) in h
    hbar, gbar = compound(np.sqrt(4.0) * np.array([1.0 + 1.0j, 2.0]),
                          np.array([0.5j, 1.0 - 1.0j]), np.array([2.0, 3.0]))
    np.testing.assert_allclose(gbar, [1.0j, 3.0 - 3.0j], atol=1e-15)
    np.testing.assert_allclose(hbar, [-2.0 + 2.0j, 12.0 - 12.0j], atol=1e-13)


def test_noiseless_chain_equals_compound_model():
    # source power 2, relay power 1.5, no noise
    rng = np.random.default_rng(0)
    chan = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    h = np.sqrt(2.0) * chan.h
    alphas = relay_gains(1.5, np.abs(h) ** 2)
    hbar, _ = compound(h, chan.g, alphas)
    w = np.array([0.6, 0.8j, 0.0])
    symbols = np.array([1.0, -1.0, 1.0j, 0.5 - 0.5j])
    x, _ = relay_receive(h, symbols, np.zeros((symbols.size, 3)))
    y = combine(chan.g * x, w, alphas, np.zeros(symbols.size))
    np.testing.assert_allclose(y, np.vdot(w, hbar) * symbols, rtol=1e-12)


def test_average_relay_transmit_power_matches_budget():
    # E|r_i|^2 = |w_i|^2 * P when alpha absorbs the expected receive power;
    # source power 2 (folded into h), relay power 1.7, noise power 0.3
    h = np.sqrt(2.0) * np.array([0.9 + 0.2j, -0.4j, 1.3])
    alphas = relay_gains(1.7, np.abs(h) ** 2 + 0.3)
    w = np.array([0.5, 1.0j, -0.8 + 0.1j])
    rng = np.random.default_rng(7)
    n = 200_000
    s = np.sign(rng.standard_normal(n) + 0.5)
    x = h[:, None] * s + complex_normal(rng, (3, n), 0.3)
    r = np.conj(w)[:, None] * alphas[:, None] * x
    np.testing.assert_allclose(np.mean(np.abs(r) ** 2, axis=1),
                               np.abs(w) ** 2 * 1.7, rtol=0.02)


def test_noise_statistics_of_received_symbols():
    # the relay noise of the whole block is drawn before the destination's
    noise = 0.04
    h, g = np.array([1.0, -1.0j]), np.array([0.5, 1.0])
    alphas = np.array([1.2, 0.7])
    hbar, gbar = compound(h, g, alphas)
    w = np.array([0.8, 0.6j])
    rng = np.random.default_rng(2)
    symbols = np.ones(200_000)
    n = complex_normal(rng, (symbols.size, 2), noise)
    v = complex_normal(rng, symbols.size, noise)
    x, _ = relay_receive(h, symbols, n)
    y = combine(g * x, w, alphas, v)
    resid = y - np.vdot(w, hbar)
    expected_var = noise * (1.0 + np.sum(np.abs(w) ** 2 * np.abs(gbar) ** 2))
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
    # the scalar objectives are the batched ones on a single vector, so they
    # agree bit for bit; 50 links of 4 relays, stacked relay-first
    rng = np.random.default_rng(3)
    hbar = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    gbar = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    hbar, gbar, w = hbar.T, gbar.T, w.T
    batch_p = network._signal_power(w, hbar)
    batch_s = network._snr(w, hbar, np.abs(gbar) ** 2, 0.3)
    for i in range(50):
        cp = CompoundParams(hbar[:, i], gbar[:, i])
        bv = _sum_vec(w[:, i])
        assert batch_p[i] == objective_power(bv, cp)
        assert batch_s[i] == objective_snr(bv, cp, 0.3)
