"""Two-hop amplify-and-forward signal chain and receive-side objectives.

The source transmits s with power Ps; relay i receives
x_i = sqrt(Ps)*h_i*s + n_i, scales it by a power-normalizing gain alpha_i and
a conjugated beamforming weight, and the destination observes
y = sum_i g_i*conj(w_i)*alpha_i*x_i + v.  Collecting terms gives the compound
model y = (w^H hbar)*s + w^H Gbar n + v with hbar_i = h_i*g_i*alpha_i*sqrt(Ps)
and Gbar = diag(g_i*alpha_i).
"""

from __future__ import annotations

import numpy as np

from .adaptation import relay_sum


# The chain, batched over links.  Channels, gains and weights put the relay
# axis first, (R, *links), as in `adaptation`, and so do tracking's
# per-symbol receptions, (R, *links, L) with the L symbols last; the gain
# rule and the fold are elementwise.  The chain runs at source power 1; a
# source power Ps is folded into h as sqrt(Ps)*h.  A single link is the
# batch with no link axes.

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
    """Receptions x = h*s + n of symbols s (..., L), h and n (R, ..., L),
    and each relay's measured power, mean |x|^2 over the L symbols, (R, ...).

    The mean has the bits of numpy's mean over L of a contiguous relay-last
    (..., L, R) array: that adds the L rows one by one, as a running sum
    does, except at R = 1, where L is the inner axis and is summed pairwise.
    """
    x = h * s + n
    power = np.abs(x) ** 2
    if x.shape[0] == 1:
        total = np.sum(np.ascontiguousarray(power), axis=-1)
    else:
        total = np.cumsum(power, axis=-1)[..., -1]
    return x, total / power.shape[-1]


def combine(gx, w, alphas, v):
    """Destination samples sum_i (g_i*x_i)*(conj(w_i)*alpha_i) + v of
    forwarded receptions gx = g*x (R, ..., L), weights and gains (R, ...),
    and noise v (..., L)."""
    return relay_sum(gx * (np.conj(w) * alphas)[..., None]) + v


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

