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
slow reductions over a short last axis, and divisions of complex values by
reals through `divide_by_real`, which gives numpy's bits faster.
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


def divide_by_real(w, d, out=None):
    """w / d for complex `w` (..., n) and reals d > 0 (inf and NaN
    included) that broadcast to its shape, bit for bit equal to
    `np.divide`, signed zeros included.  Written to `out` when given,
    which may be `w`.

    numpy divides complex numbers by Smith's algorithm, which for a real
    d > 0 multiplies both parts of w * (1 - 0j) by the rounded 1/d.  Here
    those are real multiplies on the float view of a C-contiguous result,
    with 1/d repeated pairwise so the inner loop runs along one contiguous
    axis: less than half the time of numpy's complex division.
    """
    direct = out is not None and out.flags.c_contiguous
    t = np.multiply(w, complex(1.0, -0.0), out=out if direct else None,
                    order="C")
    inv = np.divide(1.0, d)  # a numpy scalar or array, also for a float d
    if inv.ndim and inv.shape[-1] != 1:
        inv = inv.repeat(2, axis=-1)  # one factor per real and imag part
    parts = t.view(np.float64)
    np.multiply(parts, inv, out=parts)
    if out is None or direct:
        return t
    np.copyto(out, t)
    return out


def _normalize_sum(w_raw, fallback, out):
    mag2 = np.abs(w_raw)
    norm = np.sqrt(relay_sum(np.square(mag2, out=mag2)))
    if ZERO_NORM <= norm.min() and norm.max() < np.inf:  # the common case
        return divide_by_real(w_raw, norm, out)
    if np.isinf(norm).any():
        # |w|^2 overflowed (norm >= 1e154): scaling those vectors by a power
        # of two is exact, keeps their direction, and leaves norm > ZERO_NORM
        w_raw = np.where(np.isinf(norm), w_raw * 2.0 ** -530, w_raw)
        norm = np.sqrt(relay_sum(np.abs(w_raw) ** 2))
    small = norm < ZERO_NORM
    out = divide_by_real(w_raw, np.where(small, 1.0, norm), out)
    np.copyto(out, fallback, where=small)
    return out


def _normalize_per_relay(w_raw, fallback, out):
    mag = np.abs(w_raw)
    if np.isinf(mag).any():  # |w_i| overflowed; halving is exact
        w_raw = np.where(np.isinf(mag), w_raw * 0.5, w_raw)
        mag = np.abs(w_raw)
    small = mag < ZERO_NORM
    out = divide_by_real(w_raw, np.where(small, 1.0, mag), out)
    np.copyto(out, fallback, where=small)
    return out


def project(w_raw, constraint, fallback, out=None):
    """Project raw updates (R, ...) onto the constraint set.

    Sum-power scales each vector to unit norm; per-relay strips each entry
    down to its phase.  Degenerate inputs (vector norm, or a single entry,
    below 1e-12) fall back to the corresponding entries of `fallback`, the
    previous value, so the adaptation never emits an infeasible vector.
    The projection is written to `out` when given, which may be `w_raw`.
    """
    if constraint is ConstraintKind.SUM_POWER:
        return _normalize_sum(w_raw, fallback, out)
    if constraint is ConstraintKind.PER_RELAY:
        return _normalize_per_relay(w_raw, fallback, out)
    raise ValueError("unknown constraint kind")


def dft_matrix(num_relays) -> np.ndarray:
    """Unitary DFT matrix Q[a, b] = exp(-2j*pi*a*b/R)/sqrt(R)."""
    a = np.arange(num_relays)
    phase = divide_by_real(-2j * np.pi * np.outer(a, a), num_relays)
    return divide_by_real(np.exp(phase), np.sqrt(num_relays))


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
        return divide_by_real(ones, np.sqrt(num_relays))
    return ones


def probe_step(scheme, q, beta, ndim):
    """The offsets (R, P, 1, ...) that `probes` adds to working vectors
    of `ndim` axes (R, ...) along the direction `q` (R,): beta*q for TR,
    then -beta*q for PM.  A frame loop builds one per perturbation column
    (`probe_steps`) and reuses them every cycle.
    """
    # (R, 1, ...): the candidate axis, then the axes of w after the relays
    step = beta * np.reshape(q, np.shape(q) + (1,) * ndim)
    if scheme is Scheme.PM:
        # w + (-step) is w - step in IEEE arithmetic, signed zeros included
        step = np.concatenate((step, -step), axis=1)
    return step


def probe_steps(scheme, pset, beta, ndim):
    """`probe_step` of every column of `pset`; frame k takes entry
    k % len(steps), as `pset.column(k)` takes column k % N."""
    return [probe_step(scheme, q, beta, ndim) for q in pset.columns.T]


def probes(w, step, constraint, out=None):
    """Projected training candidates of working vectors `w` (R, ...) at
    the offsets `step` of `probe_step`, one stack (P, R, ...) candidate
    first: w + beta*q for TR, then w - beta*q for PM.

    The raw candidates form one relays-first block (R, P, ...), projected
    in place in one call with `w` as every candidate's fallback; the
    projection is elementwise per vector, so each candidate has the bits it
    has alone.  The block is `out` when given, a complex array that shares
    no memory with `w`: a caller stepping frame after frame passes the same
    one each time, and the returned stack is a view of it.
    """
    w = w[:, None]
    raw = np.add(w, step, out=out)
    return project(raw, constraint, w, out=raw).swapaxes(0, 1)


def probe_block(scheme, w):
    """An empty relays-first block (R, P, ...) for the `probes` of weights
    `w` (R, ...), which a frame loop passes to `probes` every frame, so
    that they fill it in place.

    A block allocated and freed every frame can make glibc's malloc hand
    the top of the heap back to the system and fault it in again on the
    next frame; on a 2000-link convergence block that cost more than one
    stacked projection saves.
    """
    num_probes = 2 if scheme is Scheme.PM else 1
    return np.empty((w.shape[0], num_probes) + w.shape[1:], dtype=complex)


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
    """Next working vector: bit 1 takes the last probe of the stack
    `probes`, bit 0 keeps the one before it (TR: `w`, PM: the plus probe)."""
    keep, take = ((w,) + tuple(probes))[-2:]
    return np.where(bit, take, keep)
