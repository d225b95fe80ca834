"""Tests for pilot-based channel, power and SNR estimation."""

import numpy as np
import pytest

from relaybf.channel import complex_normal
from relaybf.estimation import SNR_MAX, _channel_estimate, _snr_estimate


def test_all_ones_pilots_recover_channel_exactly():
    h = 0.7 - 1.3j
    assert _channel_estimate(np.full(10, h)) == pytest.approx(h, abs=1e-15)


def test_estimate_is_linear_in_observations():
    rng = np.random.default_rng(3)
    ya = complex_normal(rng, (8,))
    yb = complex_normal(rng, (8,))
    ha = _channel_estimate(ya)
    hb = _channel_estimate(yb)
    hab = _channel_estimate(2.0 * ya + 0.5j * yb)
    assert hab == pytest.approx(2.0 * ha + 0.5j * hb, rel=1e-12)


def test_estimator_variance_scales_as_noise_over_length():
    # var(h_hat) = sigma^2 / L for unit-modulus pilots.
    rng = np.random.default_rng(7)
    h = 1.0 + 0.5j
    sigma2 = 0.4
    length = 10
    trials = 200_000
    noise = complex_normal(rng, (trials, length), variance=sigma2)
    est = _channel_estimate(h + noise)
    var = float(np.mean(np.abs(est - h) ** 2))
    assert var == pytest.approx(sigma2 / length, rel=0.03)


def test_snr_estimate_frozen_symmetric_residual():
    # pilots [1, 1], y = [1+eps, 1-eps]: h_hat = 1, residual mean = eps^2,
    # so the estimate is exactly 1/eps^2.
    eps = 0.05
    obs = np.array([1.0 + eps, 1.0 - eps], dtype=complex)
    h_hat = _channel_estimate(obs)
    assert h_hat == pytest.approx(1.0, abs=1e-15)
    assert _snr_estimate(h_hat, obs) == pytest.approx(1.0 / eps**2, rel=1e-12)


def test_noiseless_block_hits_snr_cap():
    obs = np.full(5, 2.0 + 1.0j)
    assert _snr_estimate(_channel_estimate(obs), obs) == SNR_MAX


def test_split_halves_average_to_whole_for_equal_halves():
    # When both halves see the same channel, the mean of the two half
    # estimates equals the whole-interval estimate (all-ones pilots).
    rng = np.random.default_rng(11)
    h = 0.9 - 0.2j
    obs = h + complex_normal(rng, (10,), variance=0.1)
    whole = _channel_estimate(obs)
    first = _channel_estimate(obs[:5])
    second = _channel_estimate(obs[5:])
    assert 0.5 * (first + second) == pytest.approx(whole, rel=1e-12)


def test_snr_estimate_tracks_true_snr_on_average():
    rng = np.random.default_rng(13)
    h = 1.5 + 0.0j
    sigma2 = 0.25
    vals = []
    for _ in range(4000):
        obs = h + complex_normal(rng, (10,), variance=sigma2)
        vals.append(_snr_estimate(_channel_estimate(obs), obs))
    # The residual-based denominator is biased low for short blocks, so the
    # mean estimate overshoots |h|^2/sigma^2 = 9; the median stays close.
    assert 7.0 < float(np.median(vals)) < 12.0
