import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybf.channel import PathLoss, complex_normal, sample_static_rayleigh
from relaybf.network import (combine, compound, ideal_compound, relay_gains,
                             relay_receive)
from relaybf import network

# numpy: `_signal_power`'s complex product rounds symmetrically under
# conjugation, and `relay_receive` reproduces the order in which np.mean adds
pytestmark = pytest.mark.numpy_floor


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
    h = complex_normal(rng, (3, 4, 50))
    s = 1.0 - 2.0 * rng.integers(0, 2, size=(4, 50))
    x, measured = relay_receive(h, s, complex_normal(rng, (3, 4, 50), 0.3))
    assert measured.shape == (3, 4)
    for budget in (1.0, 1.0 / 3):
        alphas = relay_gains(budget, measured)
        forwarded = np.mean(np.abs(alphas[..., None] * x) ** 2, axis=-1)
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
    h, g = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    h = np.sqrt(2.0) * h
    alphas = relay_gains(1.5, np.abs(h) ** 2)
    hbar, _ = compound(h, g, alphas)
    w = np.array([0.6, 0.8j, 0.0])
    symbols = np.array([1.0, -1.0, 1.0j, 0.5 - 0.5j])
    x, _ = relay_receive(h[:, None], symbols, np.zeros((3, symbols.size)))
    y = combine(g[:, None] * x, w, alphas, np.zeros(symbols.size))
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
    x, _ = relay_receive(h[:, None], symbols, n.T)
    y = combine(g[:, None] * x, w, alphas, v)
    resid = y - np.vdot(w, hbar)
    expected_var = noise * (1.0 + np.sum(np.abs(w) ** 2 * np.abs(gbar) ** 2))
    assert np.mean(np.abs(resid) ** 2) == pytest.approx(expected_var, rel=0.02)
    assert abs(resid.mean()) < 3e-3


def test_objective_power_and_snr_values():
    hbar, gbar2 = np.array([1.0, 1.0j]), np.abs(np.array([1.0, -1.0])) ** 2
    w = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    assert network._signal_power(w, hbar) == pytest.approx(1.0, rel=1e-12)
    assert network._snr(w, hbar, gbar2, 0.5) == pytest.approx(1.0, rel=1e-12)
    peak = np.array([1.0, 0.0], dtype=complex)
    assert network._signal_power(peak, hbar) == pytest.approx(1.0, rel=1e-12)
    assert network._snr(peak, hbar, gbar2, 0.5) \
        == pytest.approx(1.0, rel=1e-12)


def test_batched_kernels_match_scalar_objectives():
    # a batch and each of its links alone, a single vector (R,) whose relay
    # sum is a numpy scalar, agree bit for bit; 50 links of 4 relays,
    # stacked relay-first
    rng = np.random.default_rng(3)
    hbar = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    gbar = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    hbar, gbar, w = hbar.T, gbar.T, w.T
    batch_p = network._signal_power(w, hbar)
    gbar2 = np.abs(gbar) ** 2
    batch_s = network._snr(w, hbar, gbar2, 0.3)
    for i in range(50):
        assert batch_p[i] == network._signal_power(w[:, i], hbar[:, i])
        assert batch_s[i] == network._snr(w[:, i], hbar[:, i], gbar2[:, i],
                                          0.3)


# the relay-last chain, kept as the reference for the relay-first one: on
# C-contiguous relay-last arrays, numpy adds the L rows of |x|^2 one by one
# for R >= 2 but pairwise at R = 1, and sums R pairwise from 4 complex relays.
# A product of a single element is left out: numpy multiplies it in another
# loop, which rounds differently, when one operand is broadcast
def _receive_relay_last(h, s, n):
    x = h * s[..., None] + n
    return x, np.mean(np.abs(x) ** 2, axis=-2)


def _combine_relay_last(gx, w, alphas, v):
    return np.sum(gx * (np.conj(w) * alphas)[..., None, :], axis=-1) + v


@settings(max_examples=150, deadline=None)
@given(r=st.integers(1, 8), num_symbols=st.integers(1, 60),
       links=st.sampled_from([(2,), (5,), (2, 3), (1, 4, 2), (2, 1)]),
       num_weights=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(r=1, num_symbols=50, links=(2, 3), num_weights=2, seed=0)
@example(r=1, num_symbols=1, links=(2,), num_weights=1, seed=0)
@example(r=4, num_symbols=60, links=(2, 3), num_weights=2, seed=1)
@example(r=3, num_symbols=40, links=(2, 16), num_weights=2, seed=2)
def test_relay_first_chain_matches_the_relay_last_one(r, num_symbols, links,
                                                      num_weights, seed):
    # the tracking chain, relay-first (R, *links, L), has the bits of the
    # relay-last formulas on relay-last contiguous arrays (..., L, R); the
    # weights carry one more link axis in front, as tracking's betas do
    rng = np.random.default_rng(seed)
    shape = links + (num_symbols, r)
    h, g, n = (complex_normal(rng, shape, var) for var in (1.0, 2.0, 0.1))
    s = 1.0 - 2.0 * rng.integers(0, 2, size=links + (num_symbols,))
    v = complex_normal(rng, links + (num_symbols,), 0.1)
    w = complex_normal(rng, (num_weights,) + links + (r,))
    x_ref, measured_ref = _receive_relay_last(h, s, n)
    alphas = relay_gains(1.0 / r, measured_ref)
    y_ref = _combine_relay_last(g * x_ref, w, alphas, v)

    def relay_first(a):
        return np.ascontiguousarray(np.moveaxis(a, -1, 0))

    x, measured = relay_receive(relay_first(h), s, relay_first(n))
    assert x.tobytes() == relay_first(x_ref).tobytes()
    assert measured.tobytes() == relay_first(measured_ref).tobytes()
    # the weights' leading link axis, inserted after the relays
    gx = (relay_first(g) * x)[:, None]
    y = combine(gx, relay_first(w), relay_first(alphas)[:, None], v)
    assert y.shape == y_ref.shape
    assert y.tobytes() == y_ref.tobytes()
