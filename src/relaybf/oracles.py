"""Closed-form beamforming references for a known compound channel.

These are the non-adaptive designs the feedback schemes are measured
against: equal-gain combining under a per-relay constraint, the matched
filter that maximizes receive power under a sum constraint, and the
SNR-optimal solution that additionally de-weights noisy forwarding paths.
"""

from __future__ import annotations

import numpy as np

from .adaptation import ConstraintKind, init_weights, relay_sum
from .network import _signal_power, _snr


def _egc(hbar):
    """Per-relay phase alignment hbar_i/|hbar_i|; weight 1 where hbar_i = 0,
    whose phase is immaterial."""
    mag = np.abs(hbar)
    safe = np.where(mag == 0, 1.0, mag)
    return np.where(mag == 0, 1.0 + 0j, hbar / safe)


def _psp(hbar):
    """Receive-power maximizer under the sum constraint, hbar/||hbar||."""
    return hbar / np.sqrt(relay_sum(np.abs(hbar) ** 2))


def _ssp(hbar, gbar2):
    """SNR maximizer under the sum constraint.  The noise-forwarding matrix
    is diagonal, so w_i is proportional to hbar_i/(1 + |gbar_i|^2),
    whatever the noise level."""
    raw = hbar / (1.0 + gbar2)
    return raw / np.sqrt(relay_sum(np.abs(raw) ** 2))


def closed_form(token, hbar, gbar2):
    """Batched closed-form weights (R, ...) of a scheme token, given hbar
    and the noise-forwarding powers gbar2 = |gbar|^2; "no-bf" is the
    uniform split that the adaptive sum-power schemes start from."""
    if token == "no-bf":
        w = init_weights(hbar.shape[0], ConstraintKind.SUM_POWER)
        return np.broadcast_to(w.reshape(w.shape + (1,) * (hbar.ndim - 1)),
                               hbar.shape)
    if token == "egc":
        return _egc(hbar)
    if token == "p-sp":
        return _psp(hbar)
    if token == "s-sp":
        return _ssp(hbar, gbar2)
    raise ValueError("no closed form for scheme %r" % token)


# vectors per draw of `random_search_margins`.  A draw takes the real parts
# of its vectors, then their imaginary parts, so this size decides which
# normals become which: it is part of the draw layout, not a free setting.
_SEARCH_CHUNK = 20000


def random_search_margins(hbar, gbar2, noise_power, num_vectors, rngs):
    """Best objective ratios found by random unit-norm probing of a stack of
    compound channels hbar (R, n), given gbar2 = |gbar|^2 (R, n).  Channel i
    is probed from the i-th generator of `rngs`, which may hand them out one
    at a time: each is drawn from before the next is taken.

    Returns (power_margin, snr_margin), each (n,): per channel, the maximum
    of J(w_random)/J(w_closed) for the power and SNR objectives.  Values
    above 1 + 1e-9 would mean the closed forms are not actually optimal.
    No channel may be identically zero.
    """
    p_best = _signal_power(_psp(hbar), hbar)
    s_best = _snr(_ssp(hbar, gbar2), hbar, gbar2, noise_power)
    # division by a positive objective is monotone, so the best ratio is
    # the best objective over that objective, bit for bit
    p_top = np.zeros(hbar.shape[1])
    s_top = np.zeros(hbar.shape[1])
    r = hbar.shape[0]
    for i, rng in enumerate(rngs):
        h_i, g_i = hbar[:, i, None], gbar2[:, i, None]
        for start in range(0, num_vectors, _SEARCH_CHUNK):
            n = min(_SEARCH_CHUNK, num_vectors - start)
            # drawn vector by vector, then viewed relay-first
            raw = (rng.standard_normal((n, r))
                   + 1j * rng.standard_normal((n, r))).T
            w = raw / np.sqrt(relay_sum(np.abs(raw) ** 2))
            p_top[i] = max(p_top[i], np.max(_signal_power(w, h_i)))
            s_top[i] = max(s_top[i], np.max(_snr(w, h_i, g_i, noise_power)))
    return p_top / p_best, s_top / s_best
