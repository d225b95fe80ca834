"""Active-relay bookkeeping for networks whose membership changes at runtime.

A death is broadcast as the dying relay's index ((Rmax - 1).bit_length()
bits); the survivors drop that coordinate and renormalize, keeping the
adaptation state otherwise intact.  A birth is broadcast as the full Rmax-bit
activity bitmap, which must keep every active relay and add exactly one;
under a sum-power constraint every node re-initializes the adaptation, while
under a per-relay constraint the incumbents keep their weights and the
newcomer starts at weight 1.  Every broadcast carries one leading kind bit
(0 = death, 1 = birth) ahead of the payload.

`apply_message` checks a broadcast and moves the active set; the
destination's `apply_death`/`apply_birth` build their message and call it.
`transition` is the one membership step of the adaptation state: it applies
a broadcast to the registry, the weights (R, *links) and the frame clock,
and the relay-side mirror `RelayAgent` runs it on its batch of one, so an
agent driven only by feedback bits and broadcasts reproduces the
destination's weight trajectory bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .adaptation import (ConstraintKind, Scheme, build_perturbation_set,
                         init_weights, probes, project, select)

_NEWCOMER_WEIGHT = 1.0 + 0j  # a per-relay newcomer's starting weight


class ProtocolError(RuntimeError):
    """A membership transition that the protocol does not allow."""


@dataclass(frozen=True)
class DeathMessage:
    index: int


@dataclass(frozen=True)
class BirthMessage:
    active: tuple  # length-Rmax tuple of bools, the post-birth activity map


@dataclass
class RelayRegistry:
    """Which of the Rmax provisioned relay slots are active, as a mask."""

    active: np.ndarray

    def __post_init__(self):
        self.active = np.asarray(self.active, dtype=bool)
        if self.active.ndim != 1 or self.active.size < 1:
            raise ValueError("active mask must be a non-empty 1-D sequence")

    @classmethod
    def full(cls, max_relays):
        return cls(np.ones(max_relays, dtype=bool))

    @classmethod
    def from_indices(cls, max_relays, indices):
        reg = cls(np.zeros(max_relays, dtype=bool))
        for index in indices:
            reg.active[reg._checked(index)] = True
        return reg

    @property
    def max_relays(self) -> int:
        return int(self.active.size)

    def _checked(self, index):
        """`index` as an int, if it names a slot, by `_slot_index`'s rule;
        `ProtocolError` otherwise."""
        try:
            return _slot_index(index, self.max_relays)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None

    @property
    def num_active(self) -> int:
        return int(np.count_nonzero(self.active))

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    def position_of(self, index) -> int:
        """Rank of a relay among the active set (its weight-vector slot)."""
        if not self.active[self._checked(index)]:
            raise ProtocolError("relay %d is not active" % index)
        return int(np.count_nonzero(self.active[:index]))

    def copy(self):
        return RelayRegistry(self.active.copy())


def _slot_index(index, max_relays) -> int:
    """`index` as an int, if it names one of `max_relays` slots: an
    integer, not a bool, in range (numpy would wrap a negative one);
    `ValueError` otherwise."""
    try:
        if isinstance(index, (bool, np.bool_)):
            raise TypeError
        index = operator.index(index)
    except TypeError:
        raise ValueError("relay index %r is not an integer"
                         % (index,)) from None
    if not 0 <= index < max_relays:
        raise ValueError("relay index %d is outside [0, %d)"
                         % (index, max_relays))
    return index


def index_bits(max_relays) -> int:
    """Payload width of a death broadcast."""
    return (int(max_relays) - 1).bit_length() if max_relays > 1 else 0


def apply_message(reg: RelayRegistry, msg) -> RelayRegistry:
    """A new registry after the broadcast `msg`, or `ProtocolError`: a death
    must name an active relay other than the last, and a birth bitmap must
    have Rmax entries, keep every active relay and add exactly one.
    """
    if isinstance(msg, DeathMessage):
        if not reg.active[reg._checked(msg.index)]:
            raise ProtocolError("death of a relay that is not active")
        if reg.num_active < 2:
            raise ProtocolError("the last active relay cannot leave")
        out = reg.copy()
        out.active[msg.index] = False
        return out
    if isinstance(msg, BirthMessage):
        active = np.asarray(msg.active, dtype=bool)
        if (active.shape != reg.active.shape or np.any(reg.active & ~active)
                or np.count_nonzero(active) != reg.num_active + 1):
            raise ProtocolError("birth bitmap must have %d entries, keep the "
                                "active relays and add one" % reg.max_relays)
        return RelayRegistry(active)
    raise ProtocolError("unknown membership message")


def apply_death(reg: RelayRegistry, index) -> tuple[RelayRegistry, DeathMessage]:
    """Deactivate one relay; at least one relay must survive."""
    msg = DeathMessage(reg._checked(index))
    return apply_message(reg, msg), msg


def apply_birth(reg: RelayRegistry, index) -> tuple[RelayRegistry, BirthMessage]:
    """Activate one provisioned relay slot."""
    active = reg.active.copy()
    active[reg._checked(index)] = True
    msg = BirthMessage(tuple(bool(b) for b in active))
    return apply_message(reg, msg), msg


def encode_message(msg, max_relays) -> str:
    """Wire format: one kind bit then the big-endian payload."""
    if isinstance(msg, DeathMessage):
        nbits = index_bits(max_relays)
        index = _slot_index(msg.index, max_relays)
        payload = format(index, "0%db" % nbits) if nbits else ""
        return "0" + payload
    if isinstance(msg, BirthMessage):
        if len(msg.active) != max_relays:
            raise ValueError("bitmap length must equal max_relays")
        return "1" + "".join("1" if b else "0" for b in msg.active)
    raise ValueError("unknown message type")


def decode_message(bits: str, max_relays):
    """Inverse of `encode_message`; malformed widths raise ValueError."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("message must be a non-empty string of 0/1")
    kind, payload = bits[0], bits[1:]
    if kind == "0":
        nbits = index_bits(max_relays)
        if len(payload) != nbits:
            raise ValueError("death payload must be %d bits" % nbits)
        return DeathMessage(_slot_index(int(payload, 2) if nbits else 0,
                                        max_relays))
    if len(payload) != max_relays:
        raise ValueError("birth payload must be %d bits" % max_relays)
    return BirthMessage(tuple(c == "1" for c in payload))


def transition(reg: RelayRegistry, msg, w, frame, constraint):
    """(registry, weights, frame clock) after the broadcast `msg`, by the
    rules above, for weights `w` (R, *links); `ProtocolError` from
    `apply_message`, before anything changes.  The survivors of a death are
    projected with the start weights as the fallback (uniform if the
    departed relay carried all the weight).  TR's stored best stays with
    the caller: only the destination can measure the new vector.
    """
    new = apply_message(reg, msg)
    r, links = new.num_active, np.shape(w)[1:]
    start = init_weights(r, constraint).reshape((r,) + (1,) * len(links))
    if isinstance(msg, DeathMessage):
        w = np.delete(w, reg.position_of(msg.index), axis=0)
        return new, project(w, constraint, start), frame
    if constraint is ConstraintKind.SUM_POWER:
        return new, np.broadcast_to(start, (r,) + links).copy(), 0
    slot = int(np.argmax(new.active != reg.active))
    return new, np.insert(w, new.position_of(slot), _NEWCOMER_WEIGHT,
                          axis=0), frame


class RelayAgent:
    """Relay-side replica of the shared adaptation trajectory.

    An agent knows only what is broadcast: the one feedback bit per frame and
    the membership messages.  From those it rebuilds the active-set weights
    (R,), a batch of one, with the destination's arithmetic (`probes` and
    `select` for a bit, `transition` for a broadcast), so the trajectories
    agree bitwise.
    """

    def __init__(self, relay_index, registry: RelayRegistry, scheme: Scheme,
                 constraint: ConstraintKind, beta):
        self.relay_index = registry._checked(relay_index)
        self.registry = registry.copy()
        self.scheme = scheme
        self.constraint = constraint
        self.beta = float(beta)
        self.weights = init_weights(self.registry.num_active, constraint)
        self.frame_index = 0
        self.pset = build_perturbation_set(self.registry.num_active, scheme)

    @property
    def is_active(self) -> bool:
        return bool(self.registry.active[self.relay_index])

    @property
    def weight_vector(self) -> np.ndarray:
        return self.weights.copy()

    @property
    def own_weight(self) -> complex:
        return complex(self.weights[self.registry.position_of(self.relay_index)])

    def advance(self, feedback_bit) -> None:
        """Apply one frame's feedback bit to the local mirror: the
        destination's probes, selected by the bit instead of objectives."""
        w = self.weights
        cand = probes(self.scheme, w, self.pset.column(self.frame_index),
                      self.beta, self.constraint)
        self.weights = select(w, cand, feedback_bit)
        self.frame_index += 1

    def apply_message(self, msg) -> None:
        """Apply a membership broadcast: `transition` on the batch of one,
        so a rejected broadcast leaves the agent as it was."""
        self.registry, self.weights, self.frame_index = transition(
            self.registry, msg, self.weights, self.frame_index, self.constraint)
        self.pset = build_perturbation_set(self.registry.num_active, self.scheme)
