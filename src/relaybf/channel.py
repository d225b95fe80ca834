"""Fading channel generation.

Static i.i.d. Rayleigh draws with per-relay path loss, and time-varying
flat-fading processes built from a sum of sinusoids with the classical
isotropic (Bessel-autocorrelation) Doppler spectrum.

All randomness flows through caller-supplied numpy generators so that every
consumer can run on its own deterministic sub-stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_NUM_OSCILLATORS = 32
MIN_NUM_OSCILLATORS = 8


def _complex_gaussian(z, variance=1.0):
    """sqrt(variance/2) * (z[0] + 1j*z[1]) for standard normals `z` stacked
    (re, im, ...) on the leading axis; the one complex-Gaussian assembly.

    Elementwise, so the bits of each entry do not depend on how many draws
    are stacked behind it.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (z[0] + 1j * z[1])


def complex_normal(rng, shape, variance=1.0):
    """Circularly-symmetric complex Gaussian draws with the given total variance.

    `variance` may be an array broadcastable against `shape`.  The real parts
    of the whole block are drawn before the imaginary parts.
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    return _complex_gaussian(rng.standard_normal((2,) + shape), variance)


@dataclass
class PathLoss:
    """Relay distances; the fading variance of each hop is distance**-2."""

    distances: np.ndarray

    def __post_init__(self):
        self.distances = np.atleast_1d(np.asarray(self.distances, dtype=float))
        if self.distances.ndim != 1 or self.distances.size == 0:
            raise ValueError("distances must be a non-empty 1-D sequence")
        if not np.all(self.distances > 0):
            raise ValueError("distances must be strictly positive")

    @property
    def num_relays(self) -> int:
        return int(self.distances.size)

    @property
    def variances(self):
        return self.distances ** -2.0

    @property
    def amplitudes(self):
        return self.distances ** -1.0


def _static_rayleigh(z, variances):
    """Backward and forward channels (h, g), each (R, *links), from standard
    normals `z` shaped (4, R, *links): h's real and imaginary parts, then
    g's.  `variances` (R,) are the per-relay fading variances."""
    var = np.reshape(variances, np.shape(variances) + (1,) * (z.ndim - 2))
    return _complex_gaussian(z[:2], var), _complex_gaussian(z[2:], var)


def sample_static_rayleigh(rng, path_loss):
    """Draw one i.i.d. Rayleigh realization (h, g) of the backward and
    forward channels, each (R,)."""
    z = rng.standard_normal((4, path_loss.num_relays))
    return _static_rayleigh(z, path_loss.variances)


class JakesBank:
    """Stack of independent fading processes sharing one oscillator grid.

    Process n is amplitude_n / sqrt(M) * sum_m exp(j(omega_m t + phi_nm))
    on the symbol clock t, with omega_m = 2 pi doppler cos(pi (m + 1/2) / M).
    ``doppler`` is the Doppler frequency in Hz times the symbol duration in
    seconds: a frame's normalized Doppler divided by its symbol count.
    ``phases`` has shape (*proc_shape, M), and blocks come back shaped
    (*proc_shape, count); phases shaped (M,) give a single process.  Built
    either from explicit phases (so callers can draw each process from its
    own stream) or via `draw` from a single generator.  Time must not
    regress below the last sampled index.
    """

    def __init__(self, phases, doppler, amplitudes):
        phases = np.asarray(phases, dtype=float)
        if not 0 <= doppler < np.inf:
            raise ValueError("doppler must be finite and >= 0")
        if phases.shape[-1] < MIN_NUM_OSCILLATORS:
            raise ValueError("num_oscillators must be >= %d" % MIN_NUM_OSCILLATORS)
        self.phases = phases
        self.amplitudes = np.broadcast_to(
            np.asarray(amplitudes, dtype=float), phases.shape[:-1]).copy()
        # midpoint grid on the half circle: every oscillator gets a distinct
        # Doppler shift (no mirrored duplicates), and the ensemble
        # autocorrelation is the Bessel integral by midpoint quadrature
        m = phases.shape[-1]
        angles = np.pi * (np.arange(m) + 0.5) / m
        self.omega = 2.0 * np.pi * float(doppler) * np.cos(angles)
        self._rot = None  # (count, rotations) of the last block length
        self.symbol_clock = 0

    @classmethod
    def draw(cls, rng, shape, doppler, amplitudes,
             num_oscillators=DEFAULT_NUM_OSCILLATORS):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=tuple(shape) + (num_oscillators,))
        return cls(phases, doppler, amplitudes)

    @property
    def num_oscillators(self) -> int:
        return int(self.phases.shape[-1])

    def block(self, start_index, count):
        if start_index < self.symbol_clock:
            raise ValueError("symbol time must advance monotonically")
        m = self.num_oscillators
        # entry (m, k) does not depend on `count`, so a repeated length reuses it
        if self._rot is None or self._rot[0] != count:
            self._rot = (count, np.exp(1j * np.outer(self.omega,
                                                     np.arange(count))))
        rot = self._rot[1]                                            # (M, count)
        base = np.exp(1j * (self.phases + self.omega * start_index))  # (*s, M)
        self.symbol_clock = int(start_index + count - 1)
        return (base @ rot) * (self.amplitudes[..., None] / np.sqrt(m))
