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


def complex_normal(rng, shape, variance=1.0):
    """Circularly-symmetric complex Gaussian draws with the given total variance.

    `variance` may be an array broadcastable against `shape`.  The real parts
    of the whole block are drawn before the imaginary parts.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


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


@dataclass
class ChannelRealization:
    """Backward (source-relay) and forward (relay-destination) coefficients."""

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.h = np.atleast_1d(np.asarray(self.h, dtype=complex))
        self.g = np.atleast_1d(np.asarray(self.g, dtype=complex))
        if self.h.ndim != 1 or self.h.shape != self.g.shape:
            raise ValueError("h and g must be 1-D vectors of equal length")

    @property
    def num_relays(self) -> int:
        return int(self.h.size)


def sample_static_rayleigh(rng, path_loss):
    """Draw one i.i.d. Rayleigh realization of all backward/forward channels."""
    h = complex_normal(rng, path_loss.num_relays, path_loss.variances)
    g = complex_normal(rng, path_loss.num_relays, path_loss.variances)
    return ChannelRealization(h, g)


def _oscillator_angles(num_oscillators):
    # Midpoint grid on the half circle: every oscillator gets a distinct
    # Doppler shift (no mirrored duplicates), and the ensemble autocorrelation
    # is the Bessel integral evaluated by midpoint quadrature.
    return np.pi * (np.arange(num_oscillators) + 0.5) / num_oscillators


class JakesBank:
    """Stack of independent fading processes sharing one oscillator grid.

    Process n is amplitude_n / sqrt(M) * sum_m exp(j(omega_m t + phi_nm))
    on the symbol clock t, with omega_m = 2 pi (normalized_doppler /
    symbols_per_frame) cos(pi (m + 1/2) / M).  ``normalized_doppler`` is the
    Doppler frequency in Hz times the frame duration in seconds.
    ``phases`` has shape (*proc_shape, M), and blocks come back shaped
    (*proc_shape, count); phases shaped (M,) give a single process.  Built
    either from explicit phases (so callers can draw each process from its
    own stream) or via `draw` from a single generator.  Time must not
    regress below the last sampled index.
    """

    def __init__(self, phases, normalized_doppler, amplitudes, symbols_per_frame=50):
        phases = np.asarray(phases, dtype=float)
        if normalized_doppler < 0:
            raise ValueError("normalized_doppler must be >= 0")
        if phases.shape[-1] < MIN_NUM_OSCILLATORS:
            raise ValueError("num_oscillators must be >= %d" % MIN_NUM_OSCILLATORS)
        if symbols_per_frame < 1:
            raise ValueError("symbols_per_frame must be >= 1")
        self.phases = phases
        self.normalized_doppler = float(normalized_doppler)
        self.symbols_per_frame = int(symbols_per_frame)
        self.amplitudes = np.broadcast_to(
            np.asarray(amplitudes, dtype=float), phases.shape[:-1]).copy()
        self.angles = _oscillator_angles(phases.shape[-1])
        self.symbol_clock = 0

    @classmethod
    def draw(cls, rng, shape, normalized_doppler, amplitudes,
             num_oscillators=DEFAULT_NUM_OSCILLATORS, symbols_per_frame=50):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=tuple(shape) + (num_oscillators,))
        return cls(phases, normalized_doppler, amplitudes, symbols_per_frame)

    @property
    def num_oscillators(self) -> int:
        return int(self.phases.shape[-1])

    @property
    def doppler_per_symbol(self) -> float:
        return self.normalized_doppler / self.symbols_per_frame

    def block(self, start_index, count):
        if start_index < self.symbol_clock:
            raise ValueError("symbol time must advance monotonically")
        m = self.num_oscillators
        omega = 2.0 * np.pi * self.doppler_per_symbol * np.cos(self.angles)
        rot = np.exp(1j * np.outer(omega, np.arange(count)))        # (M, count)
        base = np.exp(1j * (self.phases + omega * start_index))     # (*s, M)
        self.symbol_clock = int(start_index + count - 1)
        return (base @ rot) * (self.amplitudes[..., None] / np.sqrt(m))
