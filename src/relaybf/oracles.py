"""Closed-form beamforming references for a known compound channel.

These are the non-adaptive designs the feedback schemes are measured
against: equal-gain combining under a per-relay constraint, the matched
filter that maximizes receive power under a sum constraint, and the
SNR-optimal solution that additionally de-weights noisy forwarding paths.
"""

from __future__ import annotations

import numpy as np

from .adaptation import BeamVector, ConstraintKind, init_weights, relay_sum
from .network import CompoundParams, _signal_power, _snr


class DegenerateChannelError(ValueError):
    """The compound channel is identically zero; no direction is preferred."""


def _egc(hbar):
    mag = np.abs(hbar)
    safe = np.where(mag == 0, 1.0, mag)
    return np.where(mag == 0, 1.0 + 0j, hbar / safe)


def _psp(hbar):
    return hbar / np.sqrt(relay_sum(np.abs(hbar) ** 2))


def _ssp(hbar, gbar2):
    raw = hbar / (1.0 + gbar2)
    return raw / np.sqrt(relay_sum(np.abs(raw) ** 2))


def closed_form(token, hbar, gbar2):
    """Batched closed-form weights (R, ...) of a scheme token, given hbar
    and the noise-forwarding powers gbar2 = |gbar|^2; "no-bf" is the
    uniform split that the adaptive sum-power schemes start from."""
    if token == "no-bf":
        w = init_weights(hbar.shape[0], ConstraintKind.SUM_POWER).w
        return np.broadcast_to(w.reshape(w.shape + (1,) * (hbar.ndim - 1)),
                               hbar.shape)
    if token == "egc":
        return _egc(hbar)
    if token == "p-sp":
        return _psp(hbar)
    if token == "s-sp":
        return _ssp(hbar, gbar2)
    raise ValueError("no closed form for scheme %r" % token)


def egc_weights(cp: CompoundParams) -> BeamVector:
    """Per-relay phase alignment: w_i = hbar_i/|hbar_i|.

    Coordinates with a zero channel get weight 1 (the phase is immaterial
    there) and are flagged on the returned vector.
    """
    degenerate = tuple(int(i) for i in np.flatnonzero(np.abs(cp.hbar) == 0))
    return BeamVector(_egc(cp.hbar), ConstraintKind.PER_RELAY, degenerate)


def psp_weights(cp: CompoundParams) -> BeamVector:
    """Receive-power maximizer under the sum constraint: w = hbar/||hbar||."""
    if not np.any(np.abs(cp.hbar) > 0):
        raise DegenerateChannelError("compound channel is identically zero")
    return BeamVector(_psp(cp.hbar), ConstraintKind.SUM_POWER)


def ssp_weights(cp: CompoundParams, noise_power) -> BeamVector:
    """SNR maximizer under the sum constraint.

    Because the noise-forwarding matrix is diagonal this reduces to
    w_i proportional to hbar_i/(1 + |gbar_i|^2), renormalized.  The maximizer
    does not depend on the noise level; `noise_power` is accepted for
    interface symmetry with the SNR objective.
    """
    if not np.any(np.abs(cp.hbar) > 0):
        raise DegenerateChannelError("compound channel is identically zero")
    return BeamVector(_ssp(cp.hbar, np.abs(cp.gbar) ** 2),
                      ConstraintKind.SUM_POWER)


def nobf_weights(num_relays) -> BeamVector:
    """No beamforming: uniform power split, no phase alignment."""
    if num_relays < 1:
        raise ValueError("num_relays must be >= 1")
    return init_weights(num_relays, ConstraintKind.SUM_POWER)


def random_search_margins(cp: CompoundParams, noise_power, num_vectors, rng,
                          chunk=20000):
    """Best objective ratio found by random unit-norm probing.

    Returns (power_margin, snr_margin): the maximum of J(w_random)/J(w_closed)
    for the power and SNR objectives.  Values above 1 + 1e-9 would mean the
    closed forms are not actually optimal.
    """
    w_power = psp_weights(cp).w
    w_snr = ssp_weights(cp, noise_power).w
    p_best = float(_signal_power(w_power, cp.hbar))
    gbar2 = np.abs(cp.gbar) ** 2
    s_best = float(_snr(w_snr, cp.hbar, gbar2, noise_power))
    p_margin = 0.0
    s_margin = 0.0
    hbar, gbar2 = cp.hbar[:, None], gbar2[:, None]
    remaining = int(num_vectors)
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        # drawn vector by vector, then viewed relay-first
        raw = (rng.standard_normal((n, cp.num_relays))
               + 1j * rng.standard_normal((n, cp.num_relays))).T
        w = raw / np.sqrt(relay_sum(np.abs(raw) ** 2))
        p_margin = max(p_margin, float(np.max(_signal_power(w, hbar))) / p_best)
        s_margin = max(s_margin,
                       float(np.max(_snr(w, hbar, gbar2, noise_power))) / s_best)
    return p_margin, s_margin
