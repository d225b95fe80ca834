import numpy as np
import pytest

from relaybf.adaptation import ConstraintKind, init_weights
from relaybf.channel import PathLoss, sample_static_rayleigh
from relaybf.network import (CompoundParams, ideal_compound, objective_power,
                             objective_snr)
from relaybf.oracles import (DegenerateChannelError, closed_form, egc_weights,
                             nobf_weights, psp_weights, random_search_margins,
                             ssp_weights)


def _random_compound(seed, r=3, noise_power=10.0 ** -1.8):
    chan = sample_static_rayleigh(np.random.default_rng(seed),
                                  PathLoss([1.0, 3.0, 5.0][:r]))
    hbar, gbar = ideal_compound(chan.h, chan.g, 1.0, noise_power)
    return CompoundParams(hbar, gbar), noise_power


def test_egc_aligns_phases():
    cp = CompoundParams([1.0 + 1.0j, -2.0j, 3.0], [1.0, 1.0, 1.0])
    w = egc_weights(cp)
    assert w.constraint is ConstraintKind.PER_RELAY
    np.testing.assert_allclose(np.abs(w.w), 1.0, atol=1e-15)
    inner = np.vdot(w.w, cp.hbar)
    assert inner.imag == pytest.approx(0.0, abs=1e-12)
    assert inner.real == pytest.approx(np.sum(np.abs(cp.hbar)), rel=1e-12)


def test_egc_flags_zero_coordinates():
    cp = CompoundParams([1.0, 0.0, -1.0j], [1.0, 1.0, 1.0])
    w = egc_weights(cp)
    assert w.degenerate == (1,)
    assert w.w[1] == 1.0 + 0j


def test_psp_matches_channel_direction():
    cp = CompoundParams([3.0, 4.0j], [1.0, 1.0])
    w = psp_weights(cp)
    np.testing.assert_allclose(w.w, [0.6, 0.8j], atol=1e-15)
    assert objective_power(w, cp) == pytest.approx(25.0, rel=1e-12)
    # the matched filter attains exactly ||hbar||^2
    assert objective_power(w, cp) == pytest.approx(
        float(np.sum(np.abs(cp.hbar) ** 2)), rel=1e-12)


def test_ssp_downweights_noisy_paths():
    cp = CompoundParams([1.0, 2.0], [1.0, 0.0])
    w = ssp_weights(cp, 0.1)
    expected = np.array([0.5, 2.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(w.w, expected, atol=1e-14)
    np.testing.assert_allclose(
        w.w, [0.2425356250363330, 0.9701425001453319], atol=1e-13)


def test_ssp_is_noise_level_invariant():
    cp, _ = _random_compound(0)
    np.testing.assert_allclose(ssp_weights(cp, 0.001).w,
                               ssp_weights(cp, 5.0).w, atol=1e-15)


def test_degenerate_channel_raises():
    cp = CompoundParams([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DegenerateChannelError):
        psp_weights(cp)
    with pytest.raises(DegenerateChannelError):
        ssp_weights(cp, 0.1)


def test_nobf_uniform():
    w = nobf_weights(4)
    np.testing.assert_allclose(w.w, 0.5)
    with pytest.raises(ValueError):
        nobf_weights(0)


def test_closed_form_matches_the_per_channel_designs():
    # the BER kernel's token lookup, on a stack of channels, equals the
    # per-channel designs bit for bit; no-bf is the sum-power start vector.
    # The 5 channels are stacked relay-first.
    cps = [_random_compound(seed)[0] for seed in range(5)]
    hbar = np.stack([cp.hbar for cp in cps], axis=-1)
    gbar = np.stack([cp.gbar for cp in cps], axis=-1)
    designs = {"no-bf": lambda cp: nobf_weights(3), "egc": egc_weights,
               "p-sp": psp_weights, "s-sp": lambda cp: ssp_weights(cp, 0.1)}
    for token, design in designs.items():
        w = closed_form(token, hbar, gbar)
        assert w.shape == hbar.shape
        for cp, link in zip(cps, w.T):
            np.testing.assert_array_equal(link, design(cp).w)
    np.testing.assert_array_equal(nobf_weights(3).w,
                                  init_weights(3, ConstraintKind.SUM_POWER).w)
    with pytest.raises(ValueError):
        closed_form("pb-s-sp", hbar, gbar)


def test_objective_ordering_between_designs():
    for seed in range(25):
        cp, noise_power = _random_compound(seed)
        psp = psp_weights(cp)
        ssp = ssp_weights(cp, noise_power)
        egc = egc_weights(cp)
        # matched filter maximizes power; the SNR design maximizes SNR
        assert objective_power(psp, cp) >= objective_power(ssp, cp) - 1e-12
        assert objective_snr(ssp, cp, noise_power) \
            >= objective_snr(psp, cp, noise_power) - 1e-12
        # per-relay EGC uses R times the sum-constraint power budget, so it
        # is not directly comparable; its inner product is still phase-true
        assert objective_power(egc, cp) == pytest.approx(
            np.sum(np.abs(cp.hbar)) ** 2, rel=1e-12)


def test_random_search_never_beats_closed_forms():
    rng = np.random.default_rng(42)
    for seed in range(20):
        cp, noise_power = _random_compound(seed)
        p_margin, s_margin = random_search_margins(cp, noise_power, 4000, rng)
        assert 0.0 < p_margin <= 1.0 + 1e-9
        assert 0.0 < s_margin <= 1.0 + 1e-9
