import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from relaybf.channel import (JakesBank, PathLoss, complex_normal,
                             sample_static_rayleigh)


def test_complex_normal_moments():
    rng = np.random.default_rng(0)
    z = complex_normal(rng, 200_000, variance=2.0)
    assert abs(z.mean()) < 0.01
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2.0, rel=0.01)
    # circular symmetry: pseudo-variance vanishes
    assert abs(np.mean(z ** 2)) < 0.01


def test_complex_normal_broadcasts_variance():
    rng = np.random.default_rng(1)
    var = np.array([1.0, 1.0 / 9.0, 1.0 / 25.0])
    z = complex_normal(rng, (100_000, 3), variance=var)
    emp = np.mean(np.abs(z) ** 2, axis=0)
    assert emp == pytest.approx(var, rel=0.03)


@pytest.mark.parametrize("shape,variance", [
    (5, 2.0), ((4, 3), np.array([1.0, 1.0 / 9.0, 1.0 / 25.0])), ((), 0.5)])
def test_complex_normal_bytes_match_two_normal_calls(shape, variance):
    # the real parts of the whole block, then the imaginary parts
    z = complex_normal(np.random.default_rng(11), shape, variance)
    rng = np.random.default_rng(11)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    ref = np.sqrt(np.asarray(variance) / 2.0) * (re + 1j * im)
    assert z.shape == ref.shape and z.tobytes() == ref.tobytes()


def test_path_loss_values():
    pl = PathLoss([1.0, 3.0, 5.0])
    assert pl.num_relays == 3
    np.testing.assert_allclose(pl.variances, [1.0, 1.0 / 9.0, 1.0 / 25.0])
    np.testing.assert_allclose(pl.amplitudes, [1.0, 1.0 / 3.0, 1.0 / 5.0])


@pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-2.0], [[1.0, 2.0]]])
def test_path_loss_rejects_bad_distances(bad):
    with pytest.raises(ValueError):
        PathLoss(bad)


def test_static_rayleigh_statistics():
    pl = PathLoss([1.0, 3.0, 5.0])
    # one draw over 200000 copies of the three relays
    h, g = sample_static_rayleigh(np.random.default_rng(2),
                                  PathLoss(np.tile(pl.distances, 200_000)))
    h, g = h.reshape(-1, 3), g.reshape(-1, 3)
    np.testing.assert_allclose(np.mean(np.abs(h) ** 2, axis=0), pl.variances,
                               rtol=0.03)
    np.testing.assert_allclose(np.mean(np.abs(g) ** 2, axis=0), pl.variances,
                               rtol=0.03)
    # backward and forward draws are independent
    corr = np.mean(h * np.conj(g), axis=0) / pl.variances
    assert np.all(np.abs(corr) < 0.02)


def test_static_rayleigh_single_draw_shape():
    pl = PathLoss([1.0, 2.0])
    h, g = sample_static_rayleigh(np.random.default_rng(3), pl)
    assert h.shape == (2,) and g.shape == (2,)
    # the bits of drawing h, then g, with complex_normal
    rng = np.random.default_rng(3)
    assert h.tobytes() == complex_normal(rng, 2, pl.variances).tobytes()
    assert g.tobytes() == complex_normal(rng, 2, pl.variances).tobytes()


def test_jakes_bank_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        JakesBank.draw(rng, (), -0.1, 1.0)
    with pytest.raises(ValueError):
        JakesBank.draw(rng, (), 0.1, 1.0, num_oscillators=4)
    # NaN and inf passed a `< 0` check and gave all-NaN fading
    for doppler in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            JakesBank.draw(rng, (), doppler, 1.0)
    bank = JakesBank.draw(rng, (), 0.001, 2.0)
    assert bank.phases.shape == (32,)
    assert bank.num_oscillators == 32
    assert bank.omega[0] == 2.0 * np.pi * 0.001 * np.cos(np.pi / 64)


def test_jakes_zero_doppler_is_constant():
    bank = JakesBank.draw(np.random.default_rng(4), (), 0.0, 1.0)
    block = bank.block(0, 100)
    assert block.shape == (100,)
    assert np.allclose(block, block[0])


@settings(max_examples=100)
@given(cuts=st.lists(st.integers(1, 63), max_size=6),
       doppler=st.floats(0.0, 0.05), seed=st.integers(0, 2**32 - 1))
def test_jakes_block_continuity(cuts, doppler, seed):
    # any split of [0, n) into consecutive blocks gives the same samples
    n = 64
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (3, 32))
    whole = JakesBank(phases, doppler, 1.5).block(0, n)
    bank = JakesBank(phases, doppler, 1.5)
    edges = sorted(set(cuts) | {0, n})
    parts = [bank.block(a, b - a) for a, b in zip(edges, edges[1:])]
    np.testing.assert_allclose(np.concatenate(parts, axis=-1), whole,
                               rtol=0, atol=1e-12)


def test_jakes_clock_must_advance():
    bank = JakesBank.draw(np.random.default_rng(6), (), 0.1, 1.0)
    bank.block(0, 20)
    with pytest.raises(ValueError):
        bank.block(10, 5)
    # re-sampling from the last emitted index is allowed
    bank.block(19, 1)


@settings(max_examples=100)
@given(shape=st.sampled_from([(), (3,), (2, 2)]), m=st.integers(8, 40),
       doppler=st.floats(0.0, 0.5), amplitude=st.floats(0.1, 3.0),
       start=st.integers(0, 500), count=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_jakes_bank_matches_scalar_process(shape, m, doppler, amplitude,
                                           start, count, seed):
    # every process, the single one of phases shaped (M,) included, is
    # amplitude/sqrt(M) * sum_m exp(j(omega_m t + phi_m)) with the
    # oscillator angles on the midpoint grid of the half circle
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi,
                                                 shape + (m,))
    bank = JakesBank(phases, doppler, amplitude)
    block = bank.block(start, count)
    assert block.shape == shape + (count,)
    angles = np.pi * (np.arange(m) + 0.5) / m
    omega = 2.0 * np.pi * doppler * np.cos(angles)
    for idx in np.ndindex(*shape):
        ref = np.zeros(count, dtype=complex)
        for k, t in enumerate(range(start, start + count)):
            for i in range(m):
                ref[k] += np.exp(1j * (omega[i] * t + phases[idx][i]))
        ref *= amplitude / np.sqrt(m)
        np.testing.assert_allclose(block[idx], ref, rtol=0, atol=1e-10)


def test_jakes_bank_amplitude_broadcast():
    rng = np.random.default_rng(8)
    amps = np.array([1.0, 0.5])
    bank = JakesBank.draw(rng, (200, 2), 0.1 / 50, amps)
    block = bank.block(0, 200)
    emp = np.mean(np.abs(block) ** 2, axis=(0, 2))
    assert emp[0] / emp[1] == pytest.approx(4.0, rel=0.2)


def test_jakes_autocorrelation_tracks_bessel():
    doppler = 0.02
    rng = np.random.default_rng(9)
    bank = JakesBank.draw(rng, (20_000,), doppler, 1.0)
    lags = np.arange(20)
    block = bank.block(0, lags.size)
    emp = np.mean(block * np.conj(block[:, :1]), axis=0)
    ref = j0(2.0 * np.pi * doppler * lags)
    assert np.max(np.abs(emp.real - ref)) < 0.05
    assert np.max(np.abs(emp.imag)) < 0.05
    assert emp[0].real == pytest.approx(1.0, abs=0.02)
