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

from .adaptation import BeamVector, relay_sum


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


# The chain, batched over links.  Channels, gains and weights put the relay
# axis first, (R, *links), as in `adaptation`; the gain rule and the fold are
# elementwise.  Tracking's per-symbol receptions keep relays last,
# (..., L, R): `relay_receive` averages over L and `combine` takes its
# weights relay-last.  The chain runs at source power 1; a source power Ps
# is folded into h as sqrt(Ps)*h.  A single link is the batch with no link
# axes.

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


def _signal_power(w, hbar):
    """|w^H hbar|^2 over the leading (relay) axis; broadcasts over links."""
    # np.square, as `**` on arrays: for a single vector the sum is a numpy
    # scalar, whose `** 2` calls pow and may differ in the last place
    return np.square(np.abs(relay_sum(np.conj(w) * hbar)))


def _noise_gain(w, gbar2):
    """w^H Gbar Gbar^H w = sum_i |w_i|^2 |gbar_i|^2, given the
    noise-forwarding powers gbar2 = |gbar|^2."""
    return relay_sum(np.abs(w) ** 2 * gbar2)


def _snr(w, hbar, gbar2, noise_power):
    """Destination SNR; `gbar2` is |gbar|^2, which a batched caller squares
    once per channel rather than once per objective."""
    return _signal_power(w, hbar) / (noise_power * (1.0 + _noise_gain(w, gbar2)))


def objective_power(w: BeamVector, cp: CompoundParams) -> float:
    """Coherent receive-signal power |w^H hbar|^2."""
    return float(_signal_power(w.w, cp.hbar))


def objective_snr(w: BeamVector, cp: CompoundParams, noise_power) -> float:
    """Destination SNR including the amplified relay noise."""
    if noise_power <= 0:
        raise ValueError("noise_power must be > 0")
    return float(_snr(w.w, cp.hbar, np.abs(cp.gbar) ** 2, noise_power))
