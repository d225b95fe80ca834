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
from .channel import complex_normal


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


# The chain, batched: leading axes index links, the last axis relays.  The
# experiments run it at source power 1; the `NetworkParams` functions below
# are a batch of one with sqrt(Ps) folded into h.

def relay_gains(relay_power, received_power):
    """The AF gain rule alpha = sqrt(P / received power); the power is
    |h|^2 + N0 for ideal gains, a relay's measured mean |x|^2 in tracking."""
    return np.sqrt(relay_power / received_power)


def compound(h, g, alphas):
    """The compound fold (hbar, gbar) = (g*alpha*h, g*alpha)."""
    gbar = g * alphas
    return gbar * h, gbar


def ideal_compound(h, g, relay_power, noise_power):
    """(hbar, gbar) under ideal relay gains."""
    return compound(h, g, relay_gains(relay_power, np.abs(h) ** 2 + noise_power))


def relay_receive(h, s, n):
    """Receptions x = h*s + n of symbols s (..., L), h and n (..., L, R),
    and each relay's measured power, mean |x|^2 over the L symbols."""
    x = h * s[..., None] + n
    return x, np.mean(np.abs(x) ** 2, axis=-2)


def combine(gx, w, alphas, v):
    """Destination samples sum_i (g_i*x_i)*(conj(w_i)*alpha_i) + v of
    forwarded receptions gx = g*x (..., L, R) and noise v (..., L)."""
    return np.sum(gx * (np.conj(w) * alphas)[..., None, :], axis=-1) + v


def ideal_relay_gains(params, chan) -> np.ndarray:
    """Vector of ideal relay gains for a whole realization."""
    power = params.source_power * np.abs(chan.h) ** 2 + params.noise_power
    if np.any(power <= 0):
        raise ValueError("relay receive power is zero; gain undefined")
    return relay_gains(params.relay_power, power)


def compound_params(params, chan, alphas) -> CompoundParams:
    """Fold channels and relay gains into the compound receive model."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != chan.h.shape:
        raise ValueError("alphas length must match the number of relays")
    return CompoundParams(*compound(np.sqrt(params.source_power) * chan.h,
                                    chan.g, alphas))


def simulate_symbols(params, chan, alphas, w: BeamVector, symbols, rng) -> np.ndarray:
    """Relay-chain simulation of a symbol block; the relay noise of the
    whole block is drawn before the destination noise."""
    symbols = np.asarray(symbols)
    n = complex_normal(rng, (symbols.size, chan.num_relays), params.noise_power)
    v = complex_normal(rng, symbols.size, params.noise_power)
    x, _ = relay_receive(np.sqrt(params.source_power) * chan.h, symbols, n)
    return combine(chan.g * x, w.w, np.asarray(alphas), v)


def _signal_power(w, hbar):
    """|w^H hbar|^2 over the last axis; broadcasts over leading axes."""
    inner = np.sum(np.conj(w) * hbar, axis=-1)
    return np.abs(inner) ** 2


def _noise_gain(w, gbar):
    """w^H Gbar Gbar^H w = sum_i |w_i|^2 |gbar_i|^2."""
    return np.sum(np.abs(w) ** 2 * np.abs(gbar) ** 2, axis=-1)


def _snr(w, hbar, gbar, noise_power):
    return _signal_power(w, hbar) / (noise_power * (1.0 + _noise_gain(w, gbar)))


# The scalar objectives are the batched ones on a batch of one: a 1-D
# reduction may sum in another order and differ in the last place.

def objective_power(w: BeamVector, cp: CompoundParams) -> float:
    """Coherent receive-signal power |w^H hbar|^2."""
    return float(_signal_power(w.w[None, :], cp.hbar[None, :])[0])


def objective_snr(w: BeamVector, cp: CompoundParams, noise_power) -> float:
    """Destination SNR including the amplified relay noise."""
    if noise_power <= 0:
        raise ValueError("noise_power must be > 0")
    return float(_snr(w.w[None, :], cp.hbar[None, :], cp.gbar[None, :],
                      noise_power)[0])
