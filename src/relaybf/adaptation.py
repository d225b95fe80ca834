"""Beamforming weight constraints, deterministic perturbation sets, and the
one-bit-feedback adaptation state machines.

Two schemes are implemented.  Take/Reject (TR) perturbs the working vector
once per frame and keeps the perturbed candidate only when its measured
objective beats the stored best.  Plus/Minus (PM) probes +beta and -beta
versions of the same perturbation in the two halves of the training interval
and always keeps the better half.  Both consume exactly one feedback bit per
frame, so relays that observe the bit stream can mirror the weight trajectory
without any channel knowledge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

ZERO_NORM = 1e-12
CONSTRAINT_TOL = 1e-10


class ConstraintKind(enum.Enum):
    SUM_POWER = "sum-power"
    PER_RELAY = "per-relay"


class Scheme(enum.Enum):
    TR = "tr"
    PM = "pm"


@dataclass
class BeamVector:
    """Weight vector tagged with the power constraint it is meant to satisfy.

    Feasibility is not enforced at construction (tests build deliberately
    infeasible vectors); `validate` checks it where the contract requires.
    `degenerate` records coordinates whose phase is arbitrary because the
    underlying channel carried no signal.
    """

    w: np.ndarray
    constraint: ConstraintKind
    degenerate: tuple = ()

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=complex))
        if self.w.ndim != 1:
            raise ValueError("w must be a 1-D vector")
        if not isinstance(self.constraint, ConstraintKind):
            raise ValueError("constraint must be a ConstraintKind")

    @property
    def num_relays(self) -> int:
        return int(self.w.size)

    def feasibility_error(self) -> float:
        if self.constraint is ConstraintKind.SUM_POWER:
            return abs(float(np.sum(np.abs(self.w) ** 2)) - 1.0)
        return float(np.max(np.abs(np.abs(self.w) ** 2 - 1.0)))

    def validate(self):
        if self.feasibility_error() >= CONSTRAINT_TOL:
            raise ValueError("beam vector violates its power constraint")
        return self


def _normalize_sum(w_raw, fallback):
    norm = np.sqrt(np.sum(np.abs(w_raw) ** 2, axis=-1, keepdims=True))
    if np.isinf(norm).any():
        # |w|^2 overflowed (norm >= 1e154): scaling those rows by a power of
        # two is exact, keeps their direction, and leaves norm > ZERO_NORM
        w_raw = np.where(np.isinf(norm), w_raw * 2.0 ** -530, w_raw)
        norm = np.sqrt(np.sum(np.abs(w_raw) ** 2, axis=-1, keepdims=True))
    safe = np.where(norm < ZERO_NORM, 1.0, norm)
    return np.where(norm < ZERO_NORM, fallback, w_raw / safe)


def _normalize_per_relay(w_raw, fallback):
    mag = np.abs(w_raw)
    if np.isinf(mag).any():  # |w_i| overflowed; halving is exact
        w_raw = np.where(np.isinf(mag), w_raw * 0.5, w_raw)
        mag = np.abs(w_raw)
    safe = np.where(mag < ZERO_NORM, 1.0, mag)
    return np.where(mag < ZERO_NORM, fallback, w_raw / safe)


def normalize(w_raw, constraint, fallback: BeamVector) -> BeamVector:
    """Project a raw update onto the constraint set.

    Sum-power scales the whole vector to unit norm; per-relay strips each
    entry down to its phase.  Degenerate inputs (vector norm, or a single
    entry, below 1e-12) fall back to the corresponding previous value so the
    adaptation never emits an infeasible vector.
    """
    w_raw = np.atleast_1d(np.asarray(w_raw, dtype=complex))
    if constraint is ConstraintKind.SUM_POWER:
        out = _normalize_sum(w_raw, fallback.w)
    elif constraint is ConstraintKind.PER_RELAY:
        out = _normalize_per_relay(w_raw, fallback.w)
    else:
        raise ValueError("unknown constraint kind")
    return BeamVector(out, constraint)


def dft_matrix(num_relays) -> np.ndarray:
    """Unitary DFT matrix Q[a, b] = exp(-2j*pi*a*b/R)/sqrt(R)."""
    a = np.arange(num_relays)
    return np.exp(-2j * np.pi * np.outer(a, a) / num_relays) / np.sqrt(num_relays)


@dataclass
class PerturbationSet:
    """Deterministic perturbation directions, indexed cyclically by frame."""

    columns: np.ndarray  # (R, N)
    scheme_tag: Scheme

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=complex)
        if self.columns.ndim != 2:
            raise ValueError("columns must be a 2-D array")

    @property
    def num_relays(self) -> int:
        return int(self.columns.shape[0])

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
    return PerturbationSet(cols, scheme)


@dataclass
class TrState:
    """Take/Reject state: working vector, stored best objective, frame count."""

    w_data: BeamVector
    best_objective: float = 0.0
    frame_index: int = 0
    forgetting_factor: float = 1.0


@dataclass
class PmState:
    """Plus/Minus state: working vector and frame count."""

    w_data: BeamVector
    frame_index: int = 0


def init_weights(num_relays, constraint) -> BeamVector:
    """Uniform starting point: all-ones phase, scaled to the constraint."""
    ones = np.ones(num_relays, dtype=complex)
    if constraint is ConstraintKind.SUM_POWER:
        return BeamVector(ones / np.sqrt(num_relays), constraint)
    return BeamVector(ones, constraint)


def init_tr_state(num_relays, constraint, forgetting_factor=1.0) -> TrState:
    return TrState(init_weights(num_relays, constraint), 0.0, 0, forgetting_factor)


def init_pm_state(num_relays, constraint) -> PmState:
    return PmState(init_weights(num_relays, constraint), 0)


def perturb_vector(w: BeamVector, frame_index, beta, pset) -> BeamVector:
    """w + beta*q_k, re-projected; shared by TR and the relay-side mirrors."""
    q = pset.column(frame_index)
    return normalize(w.w + beta * q, w.constraint, w)


def candidate_pair(w: BeamVector, frame_index, beta, pset):
    """(w + beta*q_k, w - beta*q_k), both re-projected (PM probes)."""
    q = pset.column(frame_index)
    plus = normalize(w.w + beta * q, w.constraint, w)
    minus = normalize(w.w - beta * q, w.constraint, w)
    return plus, minus


def tr_perturb(state: TrState, beta, pset) -> BeamVector:
    """Training candidate for the current TR frame."""
    if pset.scheme_tag is not Scheme.TR:
        raise ValueError("perturbation set was built for a different scheme")
    return perturb_vector(state.w_data, state.frame_index, beta, pset)


def tr_step(state: TrState, w_tilde: BeamVector, j_training) -> tuple[TrState, int]:
    """One TR transition from the measured training objective.

    The stored best decays by the forgetting factor once per frame before the
    comparison; the feedback bit is 1 only on strict improvement, so exact
    ties reject.  Returns the successor state and the broadcast bit.
    """
    if j_training < 0:
        raise ValueError("objectives are nonnegative by construction")
    decayed = state.forgetting_factor * state.best_objective
    if j_training > decayed:
        bit = 1
        new_w = w_tilde
        new_best = float(j_training)
    else:
        bit = 0
        new_w = state.w_data
        new_best = float(decayed)
    return TrState(new_w, new_best, state.frame_index + 1,
                   state.forgetting_factor), bit


def pm_perturb(state: PmState, beta, pset):
    """(plus, minus) training candidates for the current PM frame."""
    if pset.scheme_tag is not Scheme.PM:
        raise ValueError("perturbation set was built for a different scheme")
    return candidate_pair(state.w_data, state.frame_index, beta, pset)


def pm_step(state: PmState, w_plus: BeamVector, w_minus: BeamVector,
            j_plus, j_minus) -> tuple[PmState, int]:
    """One PM transition; the pre-step vector is always discarded.

    Feedback bit 1 selects the minus candidate; ties go to plus (bit 0).
    """
    if j_plus < 0 or j_minus < 0:
        raise ValueError("objectives are nonnegative by construction")
    if j_minus > j_plus:
        bit = 1
        new_w = w_minus
    else:
        bit = 0
        new_w = w_plus
    return PmState(new_w, state.frame_index + 1), bit
