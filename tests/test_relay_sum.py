"""The relay-first layout against numpy's relay-last sums, bit for bit.

Batched weights and channels are stacked (R, *links) and summed over relays
by `relay_sum`.  The digests cover only R = 3, so these properties pin the
helper, and the kernels built on it, to the relay-last formulas they
replaced for other relay counts too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaybf import network
from relaybf.adaptation import ZERO_NORM, ConstraintKind, project, relay_sum

# numpy: `relay_sum` and `network.relay_receive` reproduce the order in which
# np.sum and np.mean add
pytestmark = pytest.mark.numpy_floor

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324,
           -5e-324, 2.2250738585072014e-308]


def _assert_same_bits(got, want):
    """Equal dtype, shape and bits; NaNs only need to sit in equal places."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    got = np.ascontiguousarray(got).view(np.float64)
    want = np.ascontiguousarray(want).view(np.float64)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


def _stack(data, shape, kind, overrides):
    """A (R, *links) float or complex stack of values in [-4, 4], each drawn
    on its own, so that the order of the adds shows in the sum; a few
    doubles of it (real or imaginary parts) are then set from `overrides`."""
    x = data.draw(arrays(np.float64, shape + ((2,) if kind == "c" else ()),
                         elements=st.floats(-4.0, 4.0), fill=st.nothing()))
    flat = x.reshape(-1)
    for i, value in data.draw(st.lists(
            st.tuples(st.integers(0, flat.size - 1), overrides), max_size=6)):
        flat[i] = value
    return x if kind == "f" else x[..., 0] + 1j * x[..., 1]


def _relay_last(x):
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150)
@given(data=st.data(), links=st.lists(st.integers(1, 3), max_size=2),
       kind=st.sampled_from("fc"))
def test_relay_sum_is_numpys_relay_last_sum(data, links, kind):
    # every relay count R = 1..64 (the first R rows of one stack), a single
    # vector included, with the special values of IEEE arithmetic mixed in:
    # signed zeros, infinities, NaN, extreme magnitudes
    x = _stack(data, (64, *links), kind,
               st.one_of(st.sampled_from(SPECIAL), st.floats()))
    for r in range(1, 65):
        _assert_same_bits(relay_sum(x[:r]),
                          np.sum(_relay_last(x[:r]), axis=-1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=50)
@given(data=st.data(), links=st.lists(st.integers(1, 3), max_size=2))
def test_sum_power_projection_divides_by_the_norm(data, links):
    # Every vector whose norm is finite and at least ZERO_NORM is divided
    # by its norm, bit for bit, signed zeros included, whichever branch
    # the stack takes: the common case of every norm in range skips the
    # fallback and overflow checks.  R = 1..64; some parts are set to
    # signed zeros, subnormals or huge values.
    w, fallback = (_stack(data, (64, *links), "c", st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e160, -1e160])) for _ in range(2))
    for r in range(1, 65):
        norm = np.sqrt(relay_sum(np.abs(w[:r]) ** 2))
        divided = w[:r] / norm
        projected = project(w[:r], ConstraintKind.SUM_POWER, fallback[:r])
        ok = (ZERO_NORM <= norm) & (norm < np.inf)
        _assert_same_bits(projected[:, ok], divided[:, ok])


def _signal_power(w, hbar):
    return np.abs(np.sum(np.conj(w) * hbar, axis=-1)) ** 2


def _noise_gain(w, gbar):
    return np.sum(np.abs(w) ** 2 * np.abs(gbar) ** 2, axis=-1)


def _normalize_sum(w_raw, fallback):
    norm = np.sqrt(np.sum(np.abs(w_raw) ** 2, axis=-1, keepdims=True))
    if np.isinf(norm).any():
        w_raw = np.where(np.isinf(norm), w_raw * 2.0 ** -530, w_raw)
        norm = np.sqrt(np.sum(np.abs(w_raw) ** 2, axis=-1, keepdims=True))
    safe = np.where(norm < ZERO_NORM, 1.0, norm)
    return np.where(norm < ZERO_NORM, fallback, w_raw / safe)


def _normalize_per_relay(w_raw, fallback):
    mag = np.abs(w_raw)
    if np.isinf(mag).any():
        w_raw = np.where(np.isinf(mag), w_raw * 0.5, w_raw)
        mag = np.abs(w_raw)
    safe = np.where(mag < ZERO_NORM, 1.0, mag)
    return np.where(mag < ZERO_NORM, fallback, w_raw / safe)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100)
@given(data=st.data(), links=st.lists(st.integers(1, 3), max_size=2),
       noise_power=st.floats(1e-3, 1e3))
def test_kernels_match_the_relay_last_formulas(data, links, noise_power):
    # The objectives and the projection on relay-first stacks equal the
    # relay-last formulas they replaced, written out above, for R = 1..16.
    # Those ran a single vector as a batch of one, so they get one more
    # link axis here.
    # Some entries are zero, tiny or huge, and whole links are scaled down
    # or up, so that the fallback of a vanishing norm and the overflow
    # rescale both run.
    overrides = st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13),
                          st.floats(allow_nan=False, allow_infinity=False))
    scale = data.draw(arrays(np.float64, links, elements=st.sampled_from(
        [1.0, 1e-14, 1e160])))
    w, hbar, gbar, fallback = (_stack(data, (16, *links), "c", overrides)
                               for _ in range(4))
    w = w * scale
    for r in range(1, 17):
        old_w, old_hbar, old_gbar, old_fallback = (
            _relay_last(x[:r])[None] for x in (w, hbar, gbar, fallback))
        signal = _signal_power(old_w, old_hbar)[0]
        gain = _noise_gain(old_w, old_gbar)[0]
        _assert_same_bits(network._signal_power(w[:r], hbar[:r]), signal)
        gbar2 = np.abs(gbar[:r]) ** 2
        _assert_same_bits(network._noise_gain(w[:r], gbar2), gain)
        _assert_same_bits(network._snr(w[:r], hbar[:r], gbar2, noise_power),
                          signal / (noise_power * (1.0 + gain)))
        for constraint, old in (
                (ConstraintKind.SUM_POWER, _normalize_sum),
                (ConstraintKind.PER_RELAY, _normalize_per_relay)):
            _assert_same_bits(project(w[:r], constraint, fallback[:r]),
                              np.moveaxis(old(old_w, old_fallback)[0], -1, 0))
