"""Two-hop amplify-and-forward signal chain and receive-side objectives.

The source transmits s with power Ps; relay i receives
x_i = sqrt(Ps)*h_i*s + n_i, scales it by a power-normalizing gain alpha_i and
a conjugated beamforming weight, and the destination observes
y = sum_i g_i*conj(w_i)*alpha_i*x_i + v.  Collecting terms gives the compound
model y = (w^H hbar)*s + w^H Gbar n + v with hbar_i = h_i*g_i*alpha_i*sqrt(Ps)
and Gbar = diag(g_i*alpha_i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptation import BeamVector
from .channel import ChannelRealization, complex_normal


@dataclass
class NetworkParams:
    """Static scenario powers; `relay_power` is the P of the relay gain rule."""

    num_relays: int
    source_power: float
    relay_power: float
    noise_power: float

    def __post_init__(self):
        if self.num_relays < 1:
            raise ValueError("num_relays must be >= 1")
        if self.source_power <= 0 or self.relay_power <= 0:
            raise ValueError("source_power and relay_power must be > 0")
        # noise_power 0 is permitted for noiseless diagnostics
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")


@dataclass
class CompoundParams:
    """End-to-end equivalent channel hbar and noise-forwarding gains gbar."""

    hbar: np.ndarray
    gbar: np.ndarray

    def __post_init__(self):
        self.hbar = np.atleast_1d(np.asarray(self.hbar, dtype=complex))
        self.gbar = np.atleast_1d(np.asarray(self.gbar, dtype=complex))
        if self.hbar.ndim != 1 or self.hbar.shape != self.gbar.shape:
            raise ValueError("hbar and gbar must be 1-D vectors of equal length")

    @property
    def num_relays(self) -> int:
        return int(self.hbar.size)


def relay_gain(params, h_i, mode="ideal", measured_power=None) -> float:
    """Power-normalizing relay amplification factor.

    "ideal" uses the exact backward channel: sqrt(P/(Ps*|h_i|^2 + N0)).
    "measured" normalizes by a supplied receive-power measurement.
    """
    if mode == "ideal":
        denom = params.source_power * abs(h_i) ** 2 + params.noise_power
        if denom <= 0:
            raise ValueError("relay receive power is zero; gain undefined")
        return float(np.sqrt(params.relay_power / denom))
    if mode == "measured":
        if measured_power is None or measured_power <= 0:
            raise ValueError("measured_power must be a positive number")
        return float(np.sqrt(params.relay_power / measured_power))
    raise ValueError("mode must be 'ideal' or 'measured'")


def ideal_relay_gains(params, chan) -> np.ndarray:
    """Vector of ideal relay gains for a whole realization."""
    denom = params.source_power * np.abs(chan.h) ** 2 + params.noise_power
    if np.any(denom <= 0):
        raise ValueError("relay receive power is zero; gain undefined")
    return np.sqrt(params.relay_power / denom)


def compound_params(params, chan, alphas) -> CompoundParams:
    """Fold channels and relay gains into the compound receive model."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != chan.h.shape:
        raise ValueError("alphas length must match the number of relays")
    gbar = chan.g * alphas
    hbar = gbar * chan.h * np.sqrt(params.source_power)
    return CompoundParams(hbar, gbar)


def simulate_symbols(params, chan, alphas, w: BeamVector, symbols, rng) -> np.ndarray:
    """Vectorized relay-chain simulation of a symbol block.

    Relay noise for the whole block is drawn before the destination noise.
    """
    symbols = np.asarray(symbols)
    n = complex_normal(rng, (symbols.size, chan.num_relays), params.noise_power)
    v = complex_normal(rng, symbols.size, params.noise_power)
    x = np.sqrt(params.source_power) * chan.h[None, :] * symbols[:, None] + n
    r = np.conj(w.w)[None, :] * np.asarray(alphas)[None, :] * x
    return (chan.g[None, :] * r).sum(axis=1) + v


def _signal_power(w, hbar):
    """|w^H hbar|^2 over the last axis; broadcasts over leading axes."""
    inner = np.sum(np.conj(w) * hbar, axis=-1)
    return np.abs(inner) ** 2


def _noise_gain(w, gbar):
    """w^H Gbar Gbar^H w = sum_i |w_i|^2 |gbar_i|^2."""
    return np.sum(np.abs(w) ** 2 * np.abs(gbar) ** 2, axis=-1)


def _snr(w, hbar, gbar, noise_power):
    return _signal_power(w, hbar) / (noise_power * (1.0 + _noise_gain(w, gbar)))


def objective_power(w: BeamVector, cp: CompoundParams) -> float:
    """Coherent receive-signal power |w^H hbar|^2."""
    return float(_signal_power(w.w, cp.hbar))


def objective_snr(w: BeamVector, cp: CompoundParams, noise_power) -> float:
    """Destination SNR including the amplified relay noise."""
    if noise_power <= 0:
        raise ValueError("noise_power must be > 0")
    return float(_snr(w.w, cp.hbar, cp.gbar, noise_power))
