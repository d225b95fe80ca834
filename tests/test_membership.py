"""Tests for membership bookkeeping, broadcasts, and the relay-side mirror."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybf.adaptation import (
    ConstraintKind,
    Scheme,
    build_perturbation_set,
    decide,
    init_weights,
    probe_step,
    probes,
    project,
    select,
)
from relaybf.channel import complex_normal
from relaybf.membership import (
    BirthMessage,
    DeathMessage,
    ProtocolError,
    RelayAgent,
    RelayRegistry,
    apply_birth,
    apply_death,
    apply_message,
    decode_message,
    encode_message,
    index_bits,
    transition,
)
from relaybf.network import _signal_power


def test_index_bits_values():
    assert [index_bits(r) for r in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_index_bits_are_exact_past_float_precision():
    # ceil(log2(Rmax)) in floats gave 60 bits at Rmax = 2**60 + 1, so the
    # encoder wrote a wire the decoder rejected
    for k in range(1, 71):
        for rmax, nbits in ((2**k, k), (2**k + 1, k + 1)):
            assert index_bits(rmax) == nbits
            msg = DeathMessage(rmax - 1)
            wire = encode_message(msg, rmax)
            assert len(wire) == 1 + nbits
            assert decode_message(wire, rmax) == msg


def test_encode_frozen_strings():
    assert encode_message(DeathMessage(3), 5) == "0011"
    assert encode_message(BirthMessage((True, False, True, True, False)), 5) == "110110"
    assert encode_message(DeathMessage(0), 1) == "0"


@settings(max_examples=300)
@given(data=st.data(), rmax=st.integers(1, 64))
def test_encode_decode_round_trip(data, rmax):
    index = data.draw(st.integers(0, rmax - 1))
    active = data.draw(st.lists(st.booleans(), min_size=rmax, max_size=rmax))
    for msg in (DeathMessage(index), BirthMessage(tuple(active))):
        assert decode_message(encode_message(msg, rmax), rmax) == msg
    # any 0/1 string is rejected or is the encoding of what it decodes to;
    # lengths lean to the two valid widths, where only the content decides
    size = data.draw(st.sampled_from([1 + index_bits(rmax), 1 + rmax])
                     | st.integers(0, rmax + 3))
    wire = data.draw(st.text(alphabet="01", min_size=size, max_size=size))
    try:
        msg = decode_message(wire, rmax)
    except ValueError:
        return
    assert encode_message(msg, rmax) == wire


def test_decode_rejects_malformed_input():
    with pytest.raises(ValueError):
        decode_message("", 5)
    with pytest.raises(ValueError):
        decode_message("01x", 5)
    with pytest.raises(ValueError):
        decode_message("001", 5)  # death payload must be 3 bits
    # the registry's index rule, with its message
    with pytest.raises(ValueError, match=r"relay index 7 is outside \[0, 5\)"):
        decode_message("0111", 5)
    with pytest.raises(ValueError, match=r"relay index 5 is outside \[0, 5\)"):
        decode_message("0101", 5)  # one past the last relay
    with pytest.raises(ValueError):
        decode_message("1101", 5)  # birth payload must be 5 bits
    with pytest.raises(ValueError):
        encode_message(DeathMessage(5), 5)
    # the registry's index rule: a bool or a non-integer names no slot
    for index in (True, 1.5):
        with pytest.raises(ValueError, match="not an integer"):
            encode_message(DeathMessage(index), 3)
    with pytest.raises(ValueError):
        encode_message(BirthMessage((True,)), 2)


def test_registry_operations():
    reg = RelayRegistry.full(4)
    assert reg.num_active == 4
    assert list(reg.active_indices()) == [0, 1, 2, 3]

    reg = RelayRegistry.from_indices(5, [0, 2, 4])
    assert reg.num_active == 3
    assert reg.position_of(0) == 0
    assert reg.position_of(2) == 1
    assert reg.position_of(4) == 2
    with pytest.raises(ProtocolError):
        reg.position_of(1)

    clone = reg.copy()
    clone.active[0] = False
    assert reg.active[0]


def test_registry_is_its_mask():
    reg = RelayRegistry([True, False, True])
    assert reg.max_relays == 3
    assert list(reg.active_indices()) == [0, 2]
    for bad in ([], [[True]]):
        with pytest.raises(ValueError):
            RelayRegistry(bad)


# int() read 1.5 and True as relay 1; numpy raised IndexError, ValueError
# or TypeError on them and on "1"
@pytest.mark.parametrize("index", [-1, 3, 1.5, True, np.True_, "1"])
def test_indices_outside_the_slots_are_rejected(index):
    # numpy reads -1 as the last slot: from_indices activated relay 2 and
    # position_of(-1) returned relay 2's rank
    full = RelayRegistry.full(3)
    partial = RelayRegistry.from_indices(3, [0, 1])
    for call in (lambda: RelayRegistry.from_indices(3, [index]),
                 lambda: full.position_of(index),
                 lambda: apply_death(full, index),
                 lambda: apply_message(full, DeathMessage(index)),
                 lambda: apply_birth(full, index),
                 lambda: apply_birth(partial, index),
                 lambda: RelayAgent(index, full, Scheme.PM,
                                    ConstraintKind.SUM_POWER, 0.1)):
        with pytest.raises(ProtocolError, match=r"outside \[0, 3\)"
                           if type(index) is int else "not an integer"):
            call()


def test_death_and_birth_transitions():
    reg = RelayRegistry.full(3)
    reg2, msg = apply_death(reg, 1)
    assert msg == DeathMessage(1)
    assert list(reg2.active_indices()) == [0, 2]
    assert reg.num_active == 3  # original untouched

    reg3, bmsg = apply_birth(reg2, 1)
    assert bmsg == BirthMessage((True, True, True))
    assert reg3.num_active == 3
    assert np.array_equal(apply_message(reg2, bmsg).active, reg3.active)
    assert np.array_equal(apply_message(reg, msg).active, reg2.active)

    with pytest.raises(ProtocolError):
        apply_death(reg2, 1)  # already inactive
    with pytest.raises(ProtocolError, match="birth bitmap"):
        apply_birth(reg, 0)  # already active
    solo = RelayRegistry.from_indices(3, [2])
    with pytest.raises(ProtocolError):
        apply_death(solo, 2)


def test_transition_death_sum_power():
    reg = RelayRegistry.full(3)
    reg2, out, frame = transition(reg, DeathMessage(0),
                                  np.array([0.6, 0.8j, 0.0]), 7,
                                  ConstraintKind.SUM_POWER)
    assert list(reg2.active_indices()) == [1, 2] and frame == 7
    np.testing.assert_allclose(out, [1.0j, 0.0], atol=1e-15)

    # Departing relay carried all the weight: fall back to uniform.
    _, out, _ = transition(reg, DeathMessage(0),
                           np.array([1.0, 0.0, 0.0], dtype=complex), 7,
                           ConstraintKind.SUM_POWER)
    np.testing.assert_allclose(out, np.full(2, 1 / np.sqrt(2)), atol=1e-15)

    # the only coordinate is the last active relay, which cannot leave
    with pytest.raises(ProtocolError, match="last active relay"):
        transition(RelayRegistry.from_indices(3, [2]), DeathMessage(2),
                   np.array([1.0 + 0j]), 7, ConstraintKind.SUM_POWER)


def test_transition_death_per_relay_keeps_phases():
    phases = np.exp(1j * np.array([0.3, 1.1, -2.0]))
    _, out, frame = transition(RelayRegistry.full(3), DeathMessage(1), phases,
                               7, ConstraintKind.PER_RELAY)
    np.testing.assert_allclose(out, phases[[0, 2]], atol=1e-12)
    assert frame == 7


def test_transition_birth_inserts_the_newcomer():
    reg = RelayRegistry.from_indices(3, [0, 2])
    w = np.exp(1j * np.array([0.5, -0.5]))
    reg2, out, frame = transition(reg, BirthMessage((True, True, True)), w,
                                  7, ConstraintKind.PER_RELAY)
    assert reg2.num_active == 3 and frame == 7
    assert out.shape == (3,)
    assert out[1] == 1.0 + 0j
    np.testing.assert_allclose(out[[0, 2]], w, atol=1e-15)
    # under sum power every link restarts at the start weights and frame 0
    _, out, frame = transition(reg, BirthMessage((True, True, True)),
                               np.stack([w, 2 * w], axis=1), 7,
                               ConstraintKind.SUM_POWER)
    assert frame == 0
    assert np.array_equal(out, np.full((3, 2), 1 / np.sqrt(3) + 0j))


@st.composite
def _stacked_schedules(draw):
    """A start mask with R = 2..6 active relays, weights (R, n) whose
    entries include +-0 and 1e-13, so that projections fall back, and legal
    deaths and births."""
    r = draw(st.integers(2, 6))
    rmax = draw(st.integers(r, r + 2))
    slots = draw(st.permutations(range(rmax)))[:r]
    active = [i in slots for i in range(rmax)]
    mask, n = list(active), draw(st.integers(1, 4))
    parts = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-13])
    w = draw(st.lists(st.lists(st.builds(complex, parts, parts),
                               min_size=n, max_size=n), min_size=r, max_size=r))
    events = []
    for _ in range(draw(st.integers(1, 6))):
        alive = [i for i in range(rmax) if active[i]]
        unborn = [i for i in range(rmax) if not active[i]]
        kind = draw(st.sampled_from((["death"] if len(alive) > 1 else [])
                                    + (["birth"] if unborn else [])))
        index = draw(st.sampled_from(alive if kind == "death" else unborn))
        active[index] = kind == "birth"
        events.append((kind, index))
    return mask, w, events


# numpy: np.delete, np.insert and the projection give each link of a stack
# the bits it has alone
@pytest.mark.numpy_floor
@settings(max_examples=150, deadline=None)
@given(schedule=_stacked_schedules(), frame=st.integers(0, 99),
       constraint=st.sampled_from(list(ConstraintKind)))
# relay 0 carries all of link 0's weight: the uniform fallback
@example(schedule=([True] * 3, [[1.0, 0.6], [0.0, 0.8j], [0.0, 0.0]],
                   [("death", 0), ("birth", 0)]),
         frame=5, constraint=ConstraintKind.SUM_POWER)
# from R = 2 to R = 1 and back
@example(schedule=([True, True], [[0.6, 1j], [0.8j, -1.0]],
                   [("death", 1), ("birth", 1)]),
         frame=5, constraint=ConstraintKind.PER_RELAY)
def test_stacked_transition_equals_each_link_alone(schedule, frame,
                                                   constraint):
    mask, w, events = schedule
    reg, w = RelayRegistry(mask), np.array(w, dtype=complex)
    alone = [(reg, w[:, j].copy(), frame) for j in range(w.shape[1])]
    for kind, index in events:
        msg = (apply_death if kind == "death" else apply_birth)(reg, index)[1]
        reg, w, frame = transition(reg, msg, w, frame, constraint)
        assert w.shape == (reg.num_active, len(alone))
        for j, (reg_j, w_j, frame_j) in enumerate(alone):
            alone[j] = transition(reg_j, msg, w_j, frame_j, constraint)
            assert np.array_equal(alone[j][0].active, reg.active)
            assert alone[j][1].tobytes() == w[:, j].tobytes()
            assert alone[j][2] == frame


def _destination(hbar_full, registry, scheme, constraint, beta, frames,
                 events):
    """Reference trajectory at the destination, with membership changes.

    `events` maps frame number -> ("death", index) or ("birth", index).
    The weight edits are written here, not taken from `transition`.  TR's
    stored best is re-measured after a death, reset with the clock by a
    sum-power birth and kept through a per-relay birth.  Returns the
    per-frame feedback bits, the broadcast messages, and the weight vector
    after every frame.
    """
    reg = registry.copy()
    w, best, frame = init_weights(reg.num_active, constraint), 0.0, 0
    pset = build_perturbation_set(reg.num_active, scheme)

    def objective(v):
        return _signal_power(v, hbar_full[reg.active])

    bits, messages, weights = [], {}, []
    for k in range(frames):
        if k in events:
            kind, idx = events[k]
            if kind == "death":
                pos = reg.position_of(idx)
                reg, msg = apply_death(reg, idx)
                w = project(np.delete(w, pos), constraint,
                            init_weights(reg.num_active, constraint))
                best = objective(w)
            else:
                reg, msg = apply_birth(reg, idx)
                if constraint is ConstraintKind.SUM_POWER:
                    w = init_weights(reg.num_active, constraint)
                    best, frame = 0.0, 0
                else:
                    w = np.insert(w, reg.position_of(idx), 1.0)
            pset = build_perturbation_set(reg.num_active, scheme)
            messages[k] = msg
        cand = probes(w, probe_step(scheme, pset.column(frame), beta, w.ndim),
                      constraint)
        bit, best = decide(scheme, [objective(c) for c in cand], best)
        w = select(w, cand, bit)
        frame += 1
        bits.append(bit)
        weights.append(w)
    return bits, messages, weights


def _is_legal(active, msg):
    """Whether `msg` is a legal broadcast on the activity list `active`."""
    if isinstance(msg, DeathMessage):
        return (0 <= msg.index < len(active) and active[msg.index]
                and sum(active) > 1)
    return (len(msg.active) == len(active)
            and all(b for a, b in zip(active, msg.active) if a)
            and sum(msg.active) == sum(active) + 1)


@st.composite
def _schedules(draw):
    """Rmax, a start mask, the mirrored relay, the frame count, legal
    deaths and births of random slots at random frames, and forged
    broadcasts, none of them legal at their frame, at other frames."""
    rmax = draw(st.integers(2, 6))
    active = draw(st.lists(st.booleans(), min_size=rmax,
                           max_size=rmax).filter(any))
    mask, relay = list(active), draw(st.integers(0, rmax - 1))
    frames = draw(st.integers(1, 30))
    events, forged = {}, {}
    for k in range(frames):
        kind = draw(st.sampled_from(["none", "death", "birth", "forged"]))
        alive = [i for i in range(rmax) if active[i]]
        unborn = [i for i in range(rmax) if not active[i]]
        if kind == "death" and len(alive) > 1:
            index = draw(st.sampled_from(alive))
            events[k], active[index] = ("death", index), False
        elif kind == "birth" and unborn:
            index = draw(st.sampled_from(unborn))
            events[k], active[index] = ("birth", index), True
        elif kind == "forged":
            # bitmaps lean to Rmax entries, where only the content decides
            bitmaps = (st.lists(st.booleans(), min_size=rmax, max_size=rmax)
                       | st.lists(st.booleans(), max_size=rmax + 2))
            msg = draw(st.builds(DeathMessage, st.integers(-2, rmax + 1))
                       | st.builds(BirthMessage, bitmaps.map(tuple)))
            if not _is_legal(active, msg):
                forged[k] = msg
    return rmax, mask, relay, frames, events, forged


@pytest.mark.parametrize("constraint", [ConstraintKind.SUM_POWER,
                                        ConstraintKind.PER_RELAY])
@pytest.mark.parametrize("scheme", [Scheme.PM, Scheme.TR])
@settings(max_examples=60, deadline=None)
@given(schedule=_schedules(), seed=st.integers(0, 2**32 - 1))
@example(schedule=(4, [True] * 4, 2, 24, {6: ("death", 1), 14: ("birth", 1)},
                   {}), seed=21)
def test_agent_mirrors_through_death_and_birth(scheme, constraint, schedule,
                                               seed):
    rmax, mask, relay, frames, events, forged = schedule
    hbar_full = complex_normal(np.random.default_rng(seed), (rmax,))
    registry = RelayRegistry(mask)
    bits, messages, weights = _destination(
        hbar_full, registry, scheme, constraint, 0.2, frames, events)

    agent = RelayAgent(relay, registry, scheme, constraint, 0.2)
    active = list(mask)  # the destination's mask after each legal broadcast
    for k in range(frames):
        if k in forged:
            before = (agent.registry.active.copy(), agent.weight_vector,
                      agent.frame_index)
            with pytest.raises(ProtocolError):
                agent.apply_message(forged[k])
            assert np.array_equal(agent.registry.active, before[0])
            assert np.array_equal(agent.weight_vector, before[1])
            assert agent.frame_index == before[2]
        if k in messages:
            wire = encode_message(messages[k], rmax)
            agent.apply_message(decode_message(wire, rmax))
            active[events[k][1]] = events[k][0] == "birth"
        agent.advance(bits[k])
        assert np.array_equal(agent.registry.active, active)
        assert np.array_equal(agent.weight_vector, weights[k])


@pytest.mark.parametrize("active", [(False, True, True),
                                    (True, True, True, True)],
                         ids=["drops_relay_0", "four_slots"])
def test_forged_births_leave_the_agent_unchanged(active):
    # a bitmap that also turns relay 0 off would put the agent out of step
    # with the destination; a 4-slot bitmap is a protocol error on 3 slots,
    # not a numpy broadcast error
    agent = RelayAgent(0, RelayRegistry.from_indices(3, [0, 2]), Scheme.PM,
                       ConstraintKind.PER_RELAY, 0.2)
    for bit in (1, 0, 1):
        agent.advance(bit)
    mask, w = agent.registry.active.copy(), agent.weight_vector
    with pytest.raises(ProtocolError, match="birth bitmap"):
        agent.apply_message(BirthMessage(active))
    assert np.array_equal(agent.registry.active, mask)
    assert np.array_equal(agent.weight_vector, w)
    assert agent.frame_index == 3


def test_agent_mirrors_tr():
    rng = np.random.default_rng(5)
    hbar = complex_normal(rng, (3,))
    w, best = init_weights(3, ConstraintKind.SUM_POWER), 0.0
    pset = build_perturbation_set(3, Scheme.TR)
    agent = RelayAgent(0, RelayRegistry.full(3), Scheme.TR,
                       ConstraintKind.SUM_POWER, 0.15)
    for k in range(40):
        cand = probes(w, probe_step(Scheme.TR, pset.column(k), 0.15, w.ndim),
                      ConstraintKind.SUM_POWER)
        bit, best = decide(Scheme.TR, (_signal_power(cand[0], hbar),), best)
        w = select(w, cand, bit)
        agent.advance(bit)
        assert np.array_equal(agent.weight_vector, w)


def test_agent_own_weight_and_activity():
    reg = RelayRegistry.full(3)
    agent = RelayAgent(1, reg, Scheme.PM, ConstraintKind.PER_RELAY, 0.1)
    assert agent.own_weight == 1.0 + 0j
    agent.apply_message(DeathMessage(1))
    assert not agent.is_active
    with pytest.raises(ProtocolError):
        agent.own_weight
