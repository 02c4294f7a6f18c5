"""Round-synchronous secure cluster formation over pre-keyed groups.

Nodes exchange local broadcasts in lockstep rounds. An ordinary sensor
announces itself under its individual key; only its own dominator can read
that and answer with a group-keyed approval. A sensor that hears no readable
approval in time declares itself orphaned and floods an error toward the base
station, which matches it against dominator reports and either hands it to an
adjacent dominator (with its individual key) or promotes it to be its own
dominator.

The step functions are pure given their inputs: each consumes one node's
inbox for the round and returns the outbox to broadcast next round. The
simulator owns all state and applies steps in a fixed node order. Inbox
processing order, tie-breaks, and sequence numbers are all deterministic, so
a seeded run is reproducible byte for byte.

Envelope sender and kind ride in the clear and are unauthenticated transport
hints; nothing is trusted for admission or resolution unless the ciphertext
opens under the expected key and its inner kind and ids agree with the
envelope. ``keys.open_as`` is that rule, and every handler opens through
it. A hop-1 approval that does not open marks its sender a neighbour
dominator, and the base station audits every report it drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, NamedTuple

from .keys import (
    Ciphertext,
    Key,
    KeyMaterial,
    KeyRing,
    Rank,
    encrypt,
    open_as,
    rekey_group,
)
from .wire import (
    MessageKind,
    pack_id,
    pack_id_key,
    pack_ids,
    unpack_id,
    unpack_id_key,
    unpack_ids,
)

#: Rounds an announcing sensor waits for a readable approval before
#: declaring itself orphaned.
APPROVAL_TIMEOUT = 2

#: Rounds the base station collects dominator reports for one orphan before
#: deciding between adoption and promotion.
MATCH_WINDOW = 4

#: The base station's node id on the plane.
BS_ID = -1


class Phase(str, Enum):
    IDLE = "idle"
    AWAITING = "awaiting_approval"
    JOINED = "joined"
    ORPHAN = "orphan"
    PROMOTED = "promoted"
    LEFT = "left"


class Envelope(NamedTuple):
    """One radio transmission.

    ``sender`` is the claimed origin and ``seq`` its per-origin sequence
    number; together they identify a flooded message across relays.
    ``transmitter`` is the entity whose radio actually emitted this copy:
    each emitter sets it to its own id, including on a copy it relays or
    replays. Receiving a copy whose transmitter equals its sender is what
    "heard at one hop" means.
    """

    sender: int
    kind: MessageKind
    ciphertext: Ciphertext
    seq: int
    transmitter: int


@dataclass
class NodeState:
    id: int
    rank: Rank
    ring: KeyRing
    phase: Phase = Phase.IDLE
    dominator: int | None = None
    neighbor_dominators: set[int] = field(default_factory=set)
    subordinates: set[int] = field(default_factory=set)
    mediators: set[int] = field(default_factory=set)
    join_round: int | None = None
    post_formation: bool = False
    pending_leave: bool = False
    #: Never written: the simulator records each flood's reach in
    #: ``World.reached``. It stays only because the benchmark's tracer
    #: (``perfbench/tracing.py``) reads it; it goes when the tracer stops.
    seen_floods: set[tuple[int, int, int]] = field(default_factory=set)
    reported_orphans: set[int] = field(default_factory=set)
    seq: int = 0


@dataclass
class OrphanRecord:
    observed: tuple[int, ...]
    received_round: int
    reports: set[int] = field(default_factory=set)
    resolution: tuple[str, int | None] | None = None


@dataclass
class BSState:
    id: int = BS_ID
    orphans: dict[int, OrphanRecord] = field(default_factory=dict)
    #: Never written; kept for the benchmark's tracer, like
    #: ``NodeState.seen_floods``.
    seen_floods: set[tuple[int, int, int]] = field(default_factory=set)
    seq: int = 0


@dataclass(frozen=True)
class ClusterOutcome:
    """Final shape of one formation run.

    ``message_count`` counts transmissions per kind, relays included.
    ``coverage_failures`` lists sensors whose orphan flood never produced a
    resolution, which can only happen when the field is physically split.
    """

    dominator_set: tuple[int, ...]
    membership: tuple[tuple[int, int], ...]
    mediators: tuple[tuple[int, int, int], ...]
    orphan_log: tuple[tuple[int, str], ...]
    coverage_failures: tuple[int, ...]
    message_count: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "dominator_set": list(self.dominator_set),
            "membership": [list(pair) for pair in self.membership],
            "mediators": [list(t) for t in self.mediators],
            "orphan_log": [list(pair) for pair in self.orphan_log],
            "coverage_failures": list(self.coverage_failures),
            "message_count": {k: v for k, v in self.message_count},
        }


def _note(events: list | None, round_no: int, node: int, event: str, **detail) -> None:
    if events is not None:
        events.append({"round": round_no, "node": node, "event": event, "detail": detail})


#: The order a step works through its inbox (kinds are IntEnums, so they
#: sort as ints).
_inbox_key = attrgetter("kind", "sender", "seq", "transmitter")


def _hop1(env: Envelope) -> bool:
    return env.transmitter == env.sender


#: What identifies one flood across all its relayed copies: its kind, its
#: origin and the origin's sequence number. That is ``_inbox_key`` without the
#: transmitter, so flood keys sort in inbox order.
flood_key = attrgetter("kind", "sender", "seq")


def _send(state, kind: MessageKind, ct: Ciphertext) -> Envelope:
    """A transmission ``state`` originates, under its next sequence number."""
    state.seq += 1
    return Envelope(state.id, kind, ct, state.seq, state.id)


# ---------------------------------------------------------------- ordinary sensor


def os_idle(state: NodeState, round_no: int) -> bool:
    """True when ``os_step`` on an empty inbox would change nothing and send
    nothing: the sensor has left, or it is not due to announce, to time out
    an approval wait, or to leave."""
    if state.phase is Phase.LEFT:
        return True
    if state.join_round is None or state.pending_leave:
        return False
    return state.phase is not Phase.AWAITING or round_no < state.join_round + APPROVAL_TIMEOUT


def os_step(
    state: NodeState,
    inbox: Iterable[Envelope],
    round_no: int,
    events: list | None = None,
) -> tuple[NodeState, list[Envelope]]:
    """Advance one ordinary sensor by one round."""
    out: list[Envelope] = []
    if state.phase is Phase.LEFT:
        return state, out

    if state.join_round is None:
        ct = encrypt(state.ring.individual, MessageKind.JOIN_REQ, b"")
        out.append(_send(state, MessageKind.JOIN_REQ, ct))
        state.join_round = round_no
        state.phase = Phase.AWAITING
        _note(events, round_no, state.id, "join_request")

    handlers = HANDLERS[Rank.OS]
    for env in sorted(inbox, key=_inbox_key):
        handler = handlers.get(env.kind)
        if handler is not None:
            handler(state, env, round_no, events)

    if state.phase is Phase.AWAITING and round_no >= state.join_round + APPROVAL_TIMEOUT:
        state.phase = Phase.ORPHAN
        observed = sorted(state.neighbor_dominators)
        ct = encrypt(state.ring.individual, MessageKind.GD_ERR, pack_ids(observed))
        out.append(_send(state, MessageKind.GD_ERR, ct))
        _note(events, round_no, state.id, "orphaned", observed=observed)

    if state.pending_leave:
        if state.phase is Phase.JOINED:
            ct = encrypt(state.ring.individual, MessageKind.LEAVE, b"")
            out.append(_send(state, MessageKind.LEAVE, ct))
        state.pending_leave = False
        state.phase = Phase.LEFT
        _note(events, round_no, state.id, "left")

    return state, out


def _os_rekey(state: NodeState, env: Envelope, round_no: int, events) -> None:
    ring = state.ring
    body = open_as(ring.individual, env.ciphertext, MessageKind.REKEY)
    if body is None:
        body = open_as(ring.group, env.ciphertext, MessageKind.REKEY)
    if body is None:
        return
    gd, key_id, bits = unpack_id_key(body)
    # Fresh keys have larger ids; refusing older ones defeats replayed rekeys.
    if key_id > ring.group.id:
        ring.group = Key(key_id, bits)
        _note(events, round_no, state.id, "group_key_installed", gd=gd, key=key_id)


def _os_approval(state: NodeState, env: Envelope, round_no: int, events) -> None:
    if not _hop1(env):
        return
    body = open_as(state.ring.group, env.ciphertext, MessageKind.JOIN_APRV)
    if body is None:
        # A dominator is talking to some group of ours in range, just not to us.
        if env.sender not in state.neighbor_dominators:
            state.neighbor_dominators.add(env.sender)
            _note(events, round_no, state.id, "neighbor_dominator", gd=env.sender)
        return
    if state.dominator is not None or state.phase not in (Phase.AWAITING, Phase.ORPHAN):
        return  # it opened, so it is no neighbour's; and it cannot change this state
    try:
        approver, _member = unpack_ids(body)
    except ValueError:
        return
    if approver != env.sender:
        return
    event = "adopted" if state.phase is Phase.ORPHAN else "joined"
    state.dominator = env.sender
    state.phase = Phase.JOINED
    _note(events, round_no, state.id, event, gd=env.sender)


def _os_promote(state: NodeState, env: Envelope, round_no: int, events) -> None:
    opened = open_as(state.ring.individual, env.ciphertext, MessageKind.PROMOTE_CMD)
    if opened is None or state.phase is not Phase.ORPHAN:
        return
    state.rank = Rank.GD_OS
    state.phase = Phase.PROMOTED
    _note(events, round_no, state.id, "promoted")


# ---------------------------------------------------------------- group dominator


def gd_step(
    state: NodeState,
    inbox: Iterable[Envelope],
    round_no: int,
    material: KeyMaterial,
    events: list | None = None,
) -> tuple[NodeState, list[Envelope]]:
    """Advance one dominator (provisioned or promoted) by one round.

    Approvals are sealed when the step ends, under the group key the
    dominator holds then, so a rekey later in the step (a leave, another
    admission) cannot leave an approval under a key its member has already
    replaced. Each keeps its place and sequence number.
    """
    out: list[Envelope] = []
    handlers = HANDLERS[state.rank]
    for env in sorted(inbox, key=_inbox_key):
        handler = handlers.get(env.kind)
        if handler is not None:
            handler(state, env, round_no, material, out, events)
    key = state.ring.group
    return state, [
        env._replace(ciphertext=encrypt(key, env.kind, env.ciphertext))
        if env.kind is MessageKind.JOIN_APRV else env
        for env in out
    ]


def _approve_envelope(state: NodeState, member: int) -> Envelope:
    """An approval of ``member`` carrying its unsealed body, which
    ``gd_step`` seals when the step ends."""
    return _send(state, MessageKind.JOIN_APRV, pack_ids([state.id, member]))


def _admit_with_rekey(state, material, member, out, round_no, events) -> None:
    recipients = [state.ring.subordinate_keys[member], state.ring.group]
    new, sealed = rekey_group(material, state.id, recipients)
    for ct in sealed:
        out.append(_send(state, MessageKind.REKEY, ct))
    out.append(_approve_envelope(state, member))
    _note(events, round_no, state.id, "rekeyed", joining=member, key=new.id)


def _gd_join_req(state, env, round_no, material, out, events) -> None:
    hop1 = _hop1(env)
    key = state.ring.subordinate_keys.get(env.sender)
    if open_as(key, env.ciphertext, MessageKind.JOIN_REQ) is None:
        if hop1:
            # Someone else's sensor (or noise) announcing in our range.
            state.mediators.add(env.sender)
            _note(events, round_no, state.id, "foreign_announce", os=env.sender)
        return
    if not hop1:
        return
    newly = env.sender not in state.subordinates
    state.subordinates.add(env.sender)
    if newly:
        _note(events, round_no, state.id, "approved", os=env.sender)
    if newly and state.post_formation:
        _admit_with_rekey(state, material, env.sender, out, round_no, events)
    else:
        out.append(_approve_envelope(state, env.sender))


def _gd_orphan_heard(state, env, round_no, material, out, events) -> None:
    if not _hop1(env):
        return
    if state.rank is not Rank.GD:
        return  # promoted heads hold no spare group, so they cannot adopt
    if env.sender in state.reported_orphans or env.sender in state.subordinates:
        return
    state.reported_orphans.add(env.sender)
    ct = encrypt(state.ring.group, MessageKind.ORP_ERR, pack_id(env.sender))
    out.append(_send(state, MessageKind.ORP_ERR, ct))
    _note(events, round_no, state.id, "orphan_reported", os=env.sender)


def _gd_adopt(state, env, round_no, material, out, events) -> None:
    key = material.group_key_for(state.id, env.ciphertext.key_id)
    body = open_as(key, env.ciphertext, MessageKind.ADOPT_CMD)
    if body is None:
        return
    orphan, key_id, bits = unpack_id_key(body)
    if orphan in state.subordinates:
        return
    state.ring.subordinate_keys[orphan] = Key(key_id, bits)
    state.subordinates.add(orphan)
    _note(events, round_no, state.id, "adopting", os=orphan)
    _admit_with_rekey(state, material, orphan, out, round_no, events)


def _gd_leave(state, env, round_no, material, out, events) -> None:
    if not _hop1(env):
        return
    key = state.ring.subordinate_keys.get(env.sender)
    opened = open_as(key, env.ciphertext, MessageKind.LEAVE)
    if opened is None or env.sender not in state.subordinates:
        return
    state.subordinates.discard(env.sender)
    _note(events, round_no, state.id, "member_left", os=env.sender)
    survivors = [state.ring.subordinate_keys[m] for m in sorted(state.subordinates)]
    _, sealed = rekey_group(material, state.id, survivors)
    for ct in sealed:
        out.append(_send(state, MessageKind.REKEY, ct))


# ---------------------------------------------------------------- base station


def bs_step(
    bs: BSState,
    inbox: Iterable[Envelope],
    round_no: int,
    material: KeyMaterial,
    events: list | None = None,
) -> tuple[BSState, list[Envelope]]:
    """Advance the base station by one round.

    The base station relays nothing; every flow it takes part in either
    terminates at it or starts from it.
    """
    out: list[Envelope] = []
    handlers = HANDLERS[BS_ID]
    for env in sorted(inbox, key=_inbox_key):
        handler = handlers.get(env.kind)
        if handler is not None:
            handler(bs, env, round_no, material, events)

    for os_id in sorted(bs.orphans):
        rec = bs.orphans[os_id]
        if rec.resolution is not None or round_no < rec.received_round + MATCH_WINDOW:
            continue
        reporters = sorted(rec.reports)
        ikey = material.individual_keys[os_id]
        if reporters:
            seen_by_orphan = [g for g in reporters if g in rec.observed]
            adopter = min(seen_by_orphan) if seen_by_orphan else min(reporters)
            body = pack_id_key(os_id, ikey.id, ikey.bits)
            gkey = material.group_keys[adopter]
            out.append(_send(bs, MessageKind.ADOPT_CMD, encrypt(gkey, MessageKind.ADOPT_CMD, body)))
            rec.resolution = ("adopted", adopter)
            _note(events, round_no, bs.id, "adopt_command", orphan=os_id, adopter=adopter)
        else:
            out.append(_send(bs, MessageKind.PROMOTE_CMD, encrypt(ikey, MessageKind.PROMOTE_CMD, b"")))
            rec.resolution = ("promoted", None)
            _note(events, round_no, bs.id, "promote_command", orphan=os_id)
    return bs, out


def _audit(bs, env, round_no, reason, events) -> None:
    _note(events, round_no, bs.id, "audit_discard", sender=env.sender, reason=reason)


def _read_report(key: Key, env: Envelope, kind: MessageKind, unpack):
    """The decoded body of a report sealed under ``key`` as ``kind``; None if
    it does not open that way or its body does not decode."""
    body = open_as(key, env.ciphertext, kind)
    if body is None:
        return None
    try:
        return unpack(body)
    except ValueError:
        return None


def _bs_gd_err(bs, env, round_no, material, events) -> None:
    ikey = material.individual_keys.get(env.sender)
    if ikey is None or ikey.id != env.ciphertext.key_id:
        _audit(bs, env, round_no, "unknown_orphan_id", events)
        return
    observed = _read_report(ikey, env, MessageKind.GD_ERR, unpack_ids)
    if observed is None:
        _audit(bs, env, round_no, "bad_orphan_report", events)
        return
    existing = bs.orphans.get(env.sender)
    if existing is not None and existing.resolution is None:
        return
    bs.orphans[env.sender] = OrphanRecord(observed, round_no)
    _note(events, round_no, bs.id, "orphan_recorded", os=env.sender, observed=list(observed))


def _bs_orp_err(bs, env, round_no, material, events) -> None:
    key = material.group_key_for(env.sender, env.ciphertext.key_id)
    if key is None:
        _audit(bs, env, round_no, "unknown_reporter", events)
        return
    orphan = _read_report(key, env, MessageKind.ORP_ERR, unpack_id)
    if orphan is None:
        _audit(bs, env, round_no, "bad_report", events)
        return
    rec = bs.orphans.get(orphan)
    if rec is None:
        _audit(bs, env, round_no, "stray_report", events)
        return
    if rec.resolution is None:
        rec.reports.add(env.sender)


#: Each step's handlers, by the rank of the sensor stepped or ``BS_ID`` for
#: the base station: the kinds a step acts on and what it does with each. The
#: simulator puts only these kinds in a radio's inbox. Relaying floods is not
#: a step's work: the simulator sends every sensor's relays.
_DOMINATOR_HANDLERS = {
    MessageKind.JOIN_REQ: _gd_join_req,
    MessageKind.GD_ERR: _gd_orphan_heard,
    MessageKind.ADOPT_CMD: _gd_adopt,
    MessageKind.LEAVE: _gd_leave,
}
HANDLERS = {
    Rank.OS: {
        MessageKind.REKEY: _os_rekey,
        MessageKind.JOIN_APRV: _os_approval,
        MessageKind.PROMOTE_CMD: _os_promote,
    },
    Rank.GD: _DOMINATOR_HANDLERS,
    Rank.GD_OS: _DOMINATOR_HANDLERS,
    BS_ID: {MessageKind.GD_ERR: _bs_gd_err, MessageKind.ORP_ERR: _bs_orp_err},
}
