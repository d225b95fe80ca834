"""Beamforming weight constraints, deterministic perturbation sets, and the
one-bit-feedback adaptation step.

Two schemes are implemented.  Take/Reject (TR) perturbs the working vector
once per frame and keeps the perturbed candidate only when its measured
objective beats the stored best.  Plus/Minus (PM) probes +beta and -beta
versions of the same perturbation in the two halves of the training interval
and always keeps the better half.  Both consume exactly one feedback bit per
frame, so relays that observe the bit stream can mirror the weight trajectory
without any channel knowledge.

The step is written once, batched over links: `project`, `probes`,
`decide` and `select`.  A relay runs `probes` and `select` with the
broadcast bit, so it computes the destination's vector by construction.

Batched weights and compound channels put the relay axis first, shaped
(R, *links); a single vector is the batch with no link axes.  Relay sums go
through `relay_sum`, which adds the R slices of a stack and so avoids numpy's
slow reductions over a short last axis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

ZERO_NORM = 1e-12


class ConstraintKind(enum.Enum):
    SUM_POWER = "sum-power"
    PER_RELAY = "per-relay"


class Scheme(enum.Enum):
    TR = "tr"
    PM = "pm"


# numpy's sum adds fewer than 8 doubles one by one, starting from +0.0 (a
# complex number counts as two doubles); longer rows use another order
_SEQUENTIAL_RELAYS = {"f": 7, "c": 3}


def relay_sum(x):
    """Sum of `x` (R, ...) over its leading (relay) axis, bit for bit equal
    to `np.sum` over the last axis of a contiguous relay-last copy."""
    if not 0 < x.shape[0] <= _SEQUENTIAL_RELAYS.get(x.dtype.kind, 0):
        return np.sum(np.ascontiguousarray(np.moveaxis(x, 0, -1)), axis=-1)
    total = x[0] + 0.0  # as numpy: -0.0 + 0.0 is +0.0
    for x_i in x[1:]:
        total += x_i
    return total


def _normalize_sum(w_raw, fallback):
    norm = np.sqrt(relay_sum(np.abs(w_raw) ** 2))
    if ZERO_NORM <= norm.min() and norm.max() < np.inf:  # the common case
        return w_raw / norm
    if np.isinf(norm).any():
        # |w|^2 overflowed (norm >= 1e154): scaling those vectors by a power
        # of two is exact, keeps their direction, and leaves norm > ZERO_NORM
        w_raw = np.where(np.isinf(norm), w_raw * 2.0 ** -530, w_raw)
        norm = np.sqrt(relay_sum(np.abs(w_raw) ** 2))
    small = norm < ZERO_NORM
    if not small.any():
        return w_raw / norm
    return np.where(small, fallback, w_raw / np.where(small, 1.0, norm))


def _normalize_per_relay(w_raw, fallback):
    mag = np.abs(w_raw)
    if np.isinf(mag).any():  # |w_i| overflowed; halving is exact
        w_raw = np.where(np.isinf(mag), w_raw * 0.5, w_raw)
        mag = np.abs(w_raw)
    safe = np.where(mag < ZERO_NORM, 1.0, mag)
    return np.where(mag < ZERO_NORM, fallback, w_raw / safe)


def project(w_raw, constraint, fallback):
    """Project raw updates (R, ...) onto the constraint set.

    Sum-power scales each vector to unit norm; per-relay strips each entry
    down to its phase.  Degenerate inputs (vector norm, or a single entry,
    below 1e-12) fall back to the corresponding entries of `fallback`, the
    previous value, so the adaptation never emits an infeasible vector.
    """
    if constraint is ConstraintKind.SUM_POWER:
        return _normalize_sum(w_raw, fallback)
    if constraint is ConstraintKind.PER_RELAY:
        return _normalize_per_relay(w_raw, fallback)
    raise ValueError("unknown constraint kind")


def dft_matrix(num_relays) -> np.ndarray:
    """Unitary DFT matrix Q[a, b] = exp(-2j*pi*a*b/R)/sqrt(R)."""
    a = np.arange(num_relays)
    return np.exp(-2j * np.pi * np.outer(a, a) / num_relays) / np.sqrt(num_relays)


@dataclass
class PerturbationSet:
    """Deterministic perturbation directions, indexed cyclically by frame."""

    columns: np.ndarray  # (R, N)

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=complex)
        if self.columns.ndim != 2:
            raise ValueError("columns must be a 2-D array")

    @property
    def num_columns(self) -> int:
        return int(self.columns.shape[1])

    def column(self, frame_index) -> np.ndarray:
        return self.columns[:, frame_index % self.num_columns]


def build_perturbation_set(num_relays, scheme: Scheme) -> PerturbationSet:
    """DFT-based direction set: [Q, jQ] for PM, [Q, jQ, -Q, -jQ] for TR.

    TR needs the sign-flipped copies because a rejected direction is never
    retried with the opposite sign; PM probes both signs within one frame.
    """
    if num_relays < 1:
        raise ValueError("num_relays must be >= 1")
    q = dft_matrix(num_relays)
    if scheme is Scheme.PM:
        cols = np.hstack([q, 1j * q])
    elif scheme is Scheme.TR:
        cols = np.hstack([q, 1j * q, -q, -1j * q])
    else:
        raise ValueError("unknown scheme")
    return PerturbationSet(cols)


def init_weights(num_relays, constraint) -> np.ndarray:
    """Uniform starting point (R,): all-ones phase, scaled to the constraint."""
    ones = np.ones(num_relays, dtype=complex)
    if constraint is ConstraintKind.SUM_POWER:
        return ones / np.sqrt(num_relays)
    return ones


def probes(scheme, w, q, beta, constraint):
    """Projected training candidates of working vectors `w` (R, ...) along
    the direction `q` (R,): (w + beta*q,) for TR, (w + beta*q, w - beta*q)
    for PM."""
    step = beta * np.reshape(q, np.shape(q) + (1,) * (np.ndim(w) - 1))
    plus = project(w + step, constraint, w)
    if scheme is Scheme.TR:
        return (plus,)
    return plus, project(w - step, constraint, w)


def decide(scheme, objectives, best=None, forgetting=1.0):
    """(feedback bit, next stored best) from the objectives of `probes`.

    PM sends 1 (take minus) iff J- > J+, so ties go to plus; `best` passes
    through.  TR sends 1 (take) iff J > forgetting*best, so ties reject, and
    stores J on a take and the decayed best otherwise.
    """
    if scheme is Scheme.PM:
        j_plus, j_minus = objectives
        return j_minus > j_plus, best
    (j,) = objectives
    decayed = forgetting * best
    take = j > decayed
    return take, np.where(take, j, decayed)


def select(w, probes, bit):
    """Next working vector: bit 1 takes the last probe, bit 0 keeps the one
    before it (TR: `w`, PM: the plus probe)."""
    keep, take = ((w,) + tuple(probes))[-2:]
    return np.where(bit, take, keep)
