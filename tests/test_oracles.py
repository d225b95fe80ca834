import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybf.adaptation import ConstraintKind, init_weights
from relaybf.channel import PathLoss, complex_normal, sample_static_rayleigh
from relaybf.engine import _STREAM_NOISE, _block_streams, _stream
from relaybf.network import _signal_power, _snr, ideal_compound
from relaybf.oracles import _SEARCH_CHUNK, closed_form, random_search_margins


def _random_compound(seed, r=3, noise_power=10.0 ** -1.8):
    h, g = sample_static_rayleigh(np.random.default_rng(seed),
                                  PathLoss([1.0, 3.0, 5.0][:r]))
    return ideal_compound(h, g, 1.0, noise_power), noise_power


def _weights(token, hbar, gbar):
    return closed_form(token, np.asarray(hbar, dtype=complex),
                       np.abs(np.asarray(gbar)) ** 2)


def test_egc_aligns_phases():
    hbar = np.array([1.0 + 1.0j, -2.0j, 3.0])
    w = _weights("egc", hbar, np.ones(3))
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-15)
    inner = np.vdot(w, hbar)
    assert inner.imag == pytest.approx(0.0, abs=1e-12)
    assert inner.real == pytest.approx(np.sum(np.abs(hbar)), rel=1e-12)


def test_egc_gives_zero_coordinates_unit_weight():
    w = _weights("egc", [1.0, 0.0, -1.0j], np.ones(3))
    np.testing.assert_array_equal(w, [1.0, 1.0, -1.0j])


def test_psp_matches_channel_direction():
    hbar = np.array([3.0, 4.0j])
    w = _weights("p-sp", hbar, np.ones(2))
    np.testing.assert_allclose(w, [0.6, 0.8j], atol=1e-15)
    assert _signal_power(w, hbar) == pytest.approx(25.0, rel=1e-12)
    # the matched filter attains exactly ||hbar||^2
    assert _signal_power(w, hbar) == pytest.approx(
        float(np.sum(np.abs(hbar) ** 2)), rel=1e-12)


def test_ssp_downweights_noisy_paths():
    w = _weights("s-sp", [1.0, 2.0], [1.0, 0.0])
    expected = np.array([0.5, 2.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(w, expected, atol=1e-14)
    np.testing.assert_allclose(
        w, [0.2425356250363330, 0.9701425001453319], atol=1e-13)


def test_ssp_is_noise_level_invariant():
    # the s-sp weights take no noise power, and no random vector beats their
    # SNR at a low or a high noise power on the same compound channel
    (hbar, gbar), _ = _random_compound(0)
    hbar, gbar2 = hbar[:, None], np.abs(gbar[:, None]) ** 2  # a stack of one
    rng = np.random.default_rng(1)
    for noise_power in (0.001, 5.0):
        (s_margin,) = random_search_margins(hbar, gbar2, noise_power, 4000,
                                            [rng])[1]
        assert 0.0 < s_margin <= 1.0 + 1e-9


def test_nobf_uniform():
    w = _weights("no-bf", np.ones(4), np.ones(4))
    np.testing.assert_allclose(w, 0.5)


def test_closed_form_matches_the_per_channel_designs():
    # the BER kernel's token lookup on a stack of channels equals the
    # lookup on each channel (R,) alone, bit for bit; no-bf is the
    # sum-power start vector.  The 5 channels are stacked relay-first.
    links = [_random_compound(seed)[0] for seed in range(5)]
    hbar = np.stack([h for h, _ in links], axis=-1)
    gbar2 = np.abs(np.stack([g for _, g in links], axis=-1)) ** 2
    for token in ("no-bf", "egc", "p-sp", "s-sp"):
        w = closed_form(token, hbar, gbar2)
        assert w.shape == hbar.shape
        for i, link in enumerate(w.T):
            np.testing.assert_array_equal(
                link, closed_form(token, hbar[:, i], gbar2[:, i]))
    np.testing.assert_array_equal(closed_form("no-bf", hbar[:, 0], gbar2[:, 0]),
                                  init_weights(3, ConstraintKind.SUM_POWER))
    with pytest.raises(ValueError):
        closed_form("pb-s-sp", hbar, gbar2)


def test_objective_ordering_between_designs():
    for seed in range(25):
        (hbar, gbar), noise_power = _random_compound(seed)
        gbar2 = np.abs(gbar) ** 2
        psp = closed_form("p-sp", hbar, gbar2)
        ssp = closed_form("s-sp", hbar, gbar2)
        egc = closed_form("egc", hbar, gbar2)
        # matched filter maximizes power; the SNR design maximizes SNR
        assert _signal_power(psp, hbar) >= _signal_power(ssp, hbar) - 1e-12
        assert _snr(ssp, hbar, gbar2, noise_power) \
            >= _snr(psp, hbar, gbar2, noise_power) - 1e-12
        # per-relay EGC uses R times the sum-constraint power budget, so it
        # is not directly comparable; its inner product is still phase-true
        assert _signal_power(egc, hbar) == pytest.approx(
            np.sum(np.abs(hbar)) ** 2, rel=1e-12)


def test_random_search_never_beats_closed_forms():
    rng = np.random.default_rng(42)
    for seed in range(20):
        (hbar, gbar), noise_power = _random_compound(seed)
        hbar, gbar2 = hbar[:, None], np.abs(gbar[:, None]) ** 2
        for (margin,) in random_search_margins(hbar, gbar2, noise_power,
                                               4000, [rng]):
            assert 0.0 < margin <= 1.0 + 1e-9


@settings(max_examples=40)
@given(r=st.integers(1, 9), n=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), num_vectors=st.integers(0, 300))
@example(r=5, n=2, seed=7, num_vectors=_SEARCH_CHUNK + 3)
def test_stacked_search_equals_each_channel_alone(r, n, seed, num_vectors):
    # above 3 relays relay_sum falls back to numpy's sum; past one chunk
    # each channel's generator serves several draws
    rng = np.random.default_rng(seed)
    hbar, gbar = ideal_compound(complex_normal(rng, (r, n)),
                                complex_normal(rng, (r, n)), 1.0, 0.1)
    gbar2 = np.abs(gbar) ** 2
    stacked = random_search_margins(hbar, gbar2, 0.1, num_vectors,
                                    _block_streams(seed, 0, n, _STREAM_NOISE))
    assert all(m.shape == (n,) for m in stacked)
    for i in range(n):
        alone = random_search_margins(hbar[:, i:i + 1], gbar2[:, i:i + 1],
                                      0.1, num_vectors,
                                      [_stream(seed, i, _STREAM_NOISE)])
        np.testing.assert_array_equal(np.ravel(alone),
                                      [m[i] for m in stacked])
