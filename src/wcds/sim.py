"""Field simulation: placement, lockstep radio transport, adversaries.

The world owns all state. Each round it delivers the transmissions of the
previous round to the entities within radio range of their transmitters,
steps the base station, the sensors and the adversaries in a fixed order,
and collects their outboxes for the next round. With the same provisioning
and seed, runs are byte-for-byte reproducible. Past transmissions are not
kept, only counted by kind in ``World.counters``.

Every sensor relays each flood (GD_ERR, ORP_ERR, ADOPT_CMD, PROMOTE_CMD)
once. The world keeps one record per flood, ``World.reached``: the protocol
radios it has reached, starting with its origin. Each round the copies of a
flood in the air are walked by transmitter id, ties in transmission order,
and each copy reaches the radios in its range that the flood has not reached
yet. So the smallest transmitter wins: that is the copy a step working
through its sorted inbox would act on, and every other copy is one it would
drop as a duplicate. Departed sensors get nothing and are not recorded, so a
sensor that comes back while a flood is passing still gets it.

Relaying is the radio layer's work, not a step's. The air holds a round's
transmissions in two parts. ``World.sends`` lists the copies that sensors,
the base station and adversaries originate or replay, in the order sent.
``World.relayed`` has one record per flood, in flood-key order: one copy of
the flood and the ascending ids of the sensors relaying it. A relay stays an
id until it reaches a radio whose step reads its kind; only then does
delivery build it an envelope. An inbox gets only the kinds its radio's step
has a handler for (``protocol.HANDLERS``): REKEY, JOIN_APRV and PROMOTE_CMD
for ordinary sensors, ADOPT_CMD, JOIN_REQ, GD_ERR and LEAVE for dominators,
GD_ERR and ORP_ERR for the base station. Of a flood it gets the winning copy,
of any other kind every copy in range. Adversaries overhear every copy in
their range in transmission order, floods included.

The transmission order is: the base station's sends; then, sensor by sensor
in id order, its relays in flood-key order and then its own sends; then the
adversaries' sends. ``World.inflight`` builds that list on demand for
readers outside the round loop.

Each round steps only the sensors that may have work: those with an inbox,
and the ordinary sensors that have not announced, await an approval or have
a leave pending, in id order. ``leave`` and ``late_join`` add a sensor to that
set, and a step that leaves it with none of those drops it; one not yet due
to announce, time out its approval wait or leave is passed over
(``protocol.os_idle``). The relays of a sensor that is not stepped still go
out. Who reads which kind, who has left and who a ``forge_join`` adversary may
impersonate are kept the same way, changed only where a sensor leaves, is
promoted or joins. A run whose only open work is orphans that nothing can
reach any more (nothing in flight, no adversary, nothing due) is not stepped
at all: its remaining rounds are counted as spent, which leaves the world as
stepping them would have.

The radio graph is built once from a cell grid, with each radio's neighbour
sets. A radio that comes onto the field or moves is spliced in: one distance
pass finds its neighbours, by the same rule as the grid, and only their
entries and the edge arrays change.

The envelope's ``transmitter`` field is the radio that emitted the copy.
Each emitter sets it to its own id, on the copies it relays or replays too,
and delivery reaches only the radios in range of it. So an adversary can
forge every claimed field but not where a copy actually came from.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter, deque
from operator import attrgetter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .graph import (
    Graph,
    from_pairs,
    is_connected,
    radius_for_expected_degree,
    unit_disk_graph,
)
from .keys import Ciphertext, KeyMaterial, Rank, group_sizes_for, provision
from .protocol import (
    BS_ID,
    BSState,
    ClusterOutcome,
    Envelope,
    HANDLERS,
    NodeState,
    Phase,
    bs_step,
    flood_key,
    gd_step,
    os_idle,
    os_step,
)
from .wire import FLOOD_KINDS, MessageKind

PLACEMENT_MODES = ("uniform", "group_clustered")
ADVERSARY_BEHAVIORS = ("forge_join", "forge_approve", "replay")

#: Transmission counter names by kind and whether an adversary sent it.
_COUNTERS = {
    (k, hostile): ("ADV_" if hostile else "") + k.name for k in MessageKind for hostile in (False, True)
}

_TRANSMITTER = attrgetter("transmitter")
_KIND = attrgetter("kind")

#: The nested config objects RunConfig.from_dict accepts, each mapping its
#: keys to the flat fields they set.
_NESTED_FIELDS = {
    "placement": {k: k for k in ("mode", "width", "height", "radius", "target_degree", "sigma")},
    "adversaries": {"count": "adversary_count", "behavior": "adversary_behavior"},
}


@dataclass(frozen=True)
class PlacementModel:
    """How sensors land on the plane.

    ``uniform`` scatters every node independently. ``group_clustered`` drops
    each dominator at a uniform anchor and its members at Gaussian offsets
    around it, clamped to the plane; sigma defaults to half the radio radius.
    """

    mode: str
    width: float
    height: float
    radius: float
    sigma: float | None = None

    def __post_init__(self):
        if self.mode not in PLACEMENT_MODES:
            raise ValueError(f"unknown placement mode {self.mode!r}")
        if self.width <= 0 or self.height <= 0 or self.radius <= 0:
            raise ValueError("width, height, and radius must be positive")
        if self.sigma is not None and self.sigma <= 0:
            raise ValueError("sigma must be positive when given")

    @property
    def spread(self) -> float:
        return self.sigma if self.sigma is not None else 0.5 * self.radius


@dataclass
class Adversary:
    id: int
    behavior: str
    seq: int = 0
    captured: deque = field(default_factory=lambda: deque(maxlen=512))


class RadioIndex(NamedTuple):
    """The unit-disk graph over every radio on the field (sensors, the base
    station and adversaries) and, per radio, the protocol radios (sensors and
    base station) and the adversaries in its range."""

    ids: list[int]  # graph node i is ids[i]
    graph: Graph
    neighbors: dict[int, tuple[frozenset[int], tuple[int, ...]]]


class _Roles(NamedTuple):
    """The part each sensor plays, kept in step with ``World.states``: the
    radios whose steps read each kind (``protocol.HANDLERS``), the departed
    sensors, and the ordinary sensors, departed ones included, in id order:
    the ids a ``forge_join`` adversary may claim."""

    reads: dict[MessageKind, set[int]]
    left: set[int]
    victims: list[int]


def _may_work(st: NodeState) -> bool:
    """Whether an ordinary sensor may act on an empty inbox: it has not
    announced, awaits an approval, or has a leave pending."""
    return st.rank is Rank.OS and (st.pending_leave or st.phase is Phase.IDLE or st.phase is Phase.AWAITING)


@dataclass
class World:
    material: KeyMaterial
    radius: float
    width: float
    height: float
    positions: dict[int, tuple[float, float]]
    planned: dict[int, tuple[float, float]]
    states: dict[int, NodeState]
    bs: BSState
    rng: random.Random
    adversaries: list[Adversary] = field(default_factory=list)
    round: int = 0
    #: The air, until delivered (see the module docstring). ``sends``: the
    #: copies originated or replayed this round, in the order sent.
    #: ``relayed``: per flood key, in key order, one copy of the flood and
    #: the ascending ids of the sensors relaying it.
    sends: list[Envelope] = field(default_factory=list)
    relayed: dict[tuple, tuple[Envelope, list[int]]] = field(default_factory=dict)
    counters: Counter[str] = field(default_factory=Counter)
    events: list[dict] = field(default_factory=list)
    #: Per flood key, the protocol radios the flood has reached: its origin
    #: and every radio delivered a copy. Departed sensors are never added.
    reached: dict[tuple, set[int]] = field(default_factory=dict)
    formation_complete: bool = False
    #: Indices built on first use, from ``positions`` and ``states``, and
    #: then kept up to date in place: the radio index (``_place`` splices
    #: each radio that comes onto the field or moves), the ordinary sensors
    #: that may have work (``_may_work``) and the part each sensor plays.
    _radio: RadioIndex | None = None
    _busy: set[int] | None = None
    _roles: _Roles | None = None

    def radio_index(self) -> RadioIndex:
        """The radio index of the field as it stands, built on first use."""
        if self._radio is None:
            ids = sorted(self.positions)
            graph = unit_disk_graph([self.positions[v] for v in ids], self.radius)
            src, dst = graph.pairs
            near = np.asarray(ids)[dst].tolist()
            # Adversary ids sort first, so each row of neighbours, in id
            # order, splits at BS_ID into adversaries and protocol radios.
            count = np.bincount(src, minlength=len(ids))
            lo = np.cumsum(count) - count
            mid = lo + np.bincount(src[dst < bisect_left(ids, BS_ID)], minlength=len(ids))
            neighbors = {
                v: (frozenset(near[b:c]), tuple(near[a:b]))
                for v, a, b, c in zip(ids, lo.tolist(), mid.tolist(), (lo + count).tolist())
            }
            self._radio = RadioIndex(ids, graph, neighbors)
        return self._radio

    def _busy_sensors(self) -> set[int]:
        """The ordinary sensors that may act on an empty inbox."""
        if self._busy is None:
            self._busy = {v for v, st in self.states.items() if _may_work(st)}
        return self._busy

    def _role_index(self) -> _Roles:
        """The part each sensor plays, built on first use."""
        if self._roles is None:
            self._roles = _Roles({kind: set() for kind in MessageKind}, set(), [])
            for kind in HANDLERS[BS_ID]:
                self._roles.reads[kind].add(BS_ID)
            for v in sorted(self.states):
                self._recast(v, None)
        return self._roles

    def _recast(self, node: int, was: Rank | None) -> None:
        """Move a sensor in the role index from the part it played, ``was``
        (its rank, or None when departed or not yet on the field), to the
        part its state gives it now."""
        reads, left, victims = self._role_index()
        st = self.states[node]
        now = None if st.phase is Phase.LEFT else st.rank
        for kind in HANDLERS.get(was, ()):
            reads[kind].discard(node)
        for kind in HANDLERS.get(now, ()):
            reads[kind].add(node)
        if now is None:
            left.add(node)
        else:
            left.discard(node)
        k = bisect_left(victims, node)
        listed = k < len(victims) and victims[k] == node
        if st.rank is Rank.OS and not listed:
            victims.insert(k, node)
        elif listed and st.rank is not Rank.OS:
            del victims[k]

    @property
    def inflight(self) -> list[Envelope]:
        """The air as one list of transmissions, in transmission order."""
        return _transmissions(self.sends, self.relayed)

    def _place(self, radio: int, position: tuple[float, float]) -> None:
        """Put a radio on the field, or move it, and splice it into the radio
        index if one is built."""
        if self._radio is not None:
            self._radio = _splice(self._radio, radio, position)
        self.positions[radio] = position


def _splice(index: RadioIndex, radio: int, position: tuple[float, float]) -> RadioIndex:
    """``index`` with ``radio`` taken off the field, if it is on it, and put
    at ``position``. Only the radio's neighbours' entries change; the edge
    arrays are renumbered and stay sorted by src, then dst. The neighbours
    are found in one distance pass under ``graph._disk_pairs``'s rule,
    ``dx*dx + dy*dy <= r*r`` in float64, so the result equals a rebuild."""
    x, y = float(position[0]), float(position[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("positions must be finite")
    ids, graph, neighbors = index
    src, dst = graph.pairs
    spots = graph.positions
    k = bisect_left(ids, radio)
    if k < len(ids) and ids[k] == radio:  # a move: off the field first
        listeners, adversaries = neighbors.pop(radio)
        for u in (*adversaries, *listeners):
            near, advs = neighbors[u]
            if radio < BS_ID:
                neighbors[u] = (near, tuple(a for a in advs if a != radio))
            else:
                neighbors[u] = (near - {radio}, advs)
        keep = (src != k) & (dst != k)
        src, dst = src[keep], dst[keep]
        src -= src > k
        dst -= dst > k
        del ids[k]
        spots = spots[:k] + spots[k + 1 :]
    xy = np.array(spots, dtype=np.float64).reshape(-1, 2)
    r = graph.radius
    with np.errstate(over="ignore", invalid="ignore"):
        dx = xy[:, 0] - x
        dy = xy[:, 1] - y
        hit = np.flatnonzero(dx * dx + dy * dy <= r * r)
    near = [ids[j] for j in hit.tolist()]
    split = bisect_left(near, BS_ID)
    for u in near:
        listeners, adversaries = neighbors[u]
        if radio < BS_ID:
            neighbors[u] = (listeners, tuple(sorted((*adversaries, radio))))
        else:
            neighbors[u] = (listeners | {radio}, adversaries)
    neighbors[radio] = (frozenset(near[split:]), tuple(near[:split]))
    ids.insert(k, radio)
    n = len(ids)
    hit += hit >= k
    src = src + (src >= k)
    dst = dst + (dst >= k)
    keys = src * n + dst
    added = np.sort(np.concatenate((k * n + hit, hit * n + k)))
    keys = np.insert(keys, np.searchsorted(keys, added), added)
    spots = spots[:k] + ((x, y),) + spots[k:]
    return RadioIndex(ids, from_pairs(spots, r, *np.divmod(keys, n)), neighbors)


def _fresh_state(material: KeyMaterial, node: int) -> NodeState:
    return NodeState(id=node, rank=material.ranks[node], ring=material.rings[node])


def deploy(
    material: KeyMaterial,
    placement: PlacementModel,
    seed: int = 0,
) -> World:
    """Scatter the provisioned nodes and stand up a world, reserves held back.

    Positions are drawn for every node including reserves, in id order within
    the drawing scheme, so a reserve sensor deployed later lands where the
    same seed would always have put it.
    """
    rng = random.Random(seed)
    w, h = placement.width, placement.height
    planned: dict[int, tuple[float, float]] = {}
    if placement.mode == "uniform":
        for node in material.all_nodes():
            planned[node] = (rng.uniform(0.0, w), rng.uniform(0.0, h))
    else:
        s = placement.spread
        for gd, members in material.groups:
            ax, ay = rng.uniform(0.0, w), rng.uniform(0.0, h)
            planned[gd] = (ax, ay)
            for m in members:
                mx = min(max(rng.gauss(ax, s), 0.0), w)
                my = min(max(rng.gauss(ay, s), 0.0), h)
                planned[m] = (mx, my)

    positions = {n: planned[n] for n in material.deployed_nodes()}
    positions[BS_ID] = (w / 2.0, h / 2.0)
    states = {n: _fresh_state(material, n) for n in material.deployed_nodes()}
    return World(
        material=material,
        radius=placement.radius,
        width=w,
        height=h,
        positions=positions,
        planned=planned,
        states=states,
        bs=BSState(),
        rng=rng,
    )


def _transmissions(
    sends: list[Envelope], relayed: dict[tuple, tuple[Envelope, list[int]]], heard=None
) -> list[Envelope]:
    """The air as one list in transmission order (see the module docstring),
    or only the copies whose transmitter is in ``heard``."""
    owed: dict[int, list[Envelope]] = {}
    for (sender, kind, ct, seq, _), ids in relayed.values():
        for r in ids if heard is None else heard.intersection(ids):
            owed.setdefault(r, []).append(Envelope(sender, kind, ct, seq, r))
    queue = sorted(owed, reverse=True)
    out: list[Envelope] = []
    for env in sends:
        t = env.transmitter
        if heard is not None and t not in heard:
            continue
        # A sensor's relays go ahead of its own sends and of every later
        # sender's; adversaries (ids below the base station's) send last.
        while queue and (t < BS_ID or t >= queue[-1]):
            out += owed[queue.pop()]
        out.append(env)
    for r in reversed(queue):
        out += owed[r]
    return out


def _deliver(world: World) -> dict[int, list[Envelope]]:
    """Empty the air, by the rule in the module docstring, into the inboxes
    of the radios whose steps read each copy, and record in
    ``World.relayed`` the sensors that relay each flood this round.
    Departed sensors receive nothing."""
    neighbors = world.radio_index().neighbors
    reads, left, _ = world._role_index()
    sends, relayed = world.sends, world.relayed
    world.sends, world.relayed = [], {}
    inboxes: dict[int, list[Envelope]] = {}
    for adv in world.adversaries:
        listeners, adversaries = neighbors[adv.id]
        inboxes[adv.id] = _transmissions(sends, relayed, listeners.union(adversaries))
    floods: dict[tuple, list[Envelope]] = {}
    for env in sends:
        if env.kind in FLOOD_KINDS:
            floods.setdefault(flood_key(env), []).append(env)
            continue
        for rcv in neighbors[env.transmitter][0] & reads[env.kind]:
            inboxes.setdefault(rcv, []).append(env)
    for key in sorted(floods.keys() | relayed.keys()):
        copies = floods.get(key, [])
        reached = world.reached.get(key)
        if reached is None:  # the flood's first round in the air: only its origin sent it
            reached = world.reached[key] = {e.sender for e in copies if e.transmitter == e.sender}
        readers = reads[key[0]]
        relaying: set[int] = set()
        # Copies sent as such (the origin's, replays) come from the origin or
        # an adversary, whose ids sort ahead of every sensor relaying the flood.
        copies.sort(key=_TRANSMITTER)
        for env in copies:
            fresh = neighbors[env.transmitter][0] - reached
            if left:
                fresh -= left
            reached |= fresh
            relaying |= fresh
            for rcv in fresh & readers:
                inboxes.setdefault(rcv, []).append(env)
        if key in relayed:
            copy, ids = relayed[key]
            fresh = set()
            for r in ids:
                fresh |= neighbors[r][0]
            fresh -= reached
            if left:
                fresh -= left
            reached |= fresh
            relaying |= fresh
            relayers = set(ids)
            sender, kind, ct, seq, _ = copy
            # Of the copies a reader hears, the smallest relayer's wins.
            for rcv in fresh & readers:
                winner = min(relayers.intersection(neighbors[rcv][0]))
                inboxes.setdefault(rcv, []).append(Envelope(sender, kind, ct, seq, winner))
        else:
            copy = copies[0]
        relaying.discard(BS_ID)
        if relaying:
            world.relayed[key] = (copy, sorted(relaying))
    return inboxes


def _adversary_step(
    world: World, adv: Adversary, inbox: list[Envelope], victims: list[int]
) -> list[Envelope]:
    """One adversary's round. ``victims`` are the ordinary sensors a
    ``forge_join`` adversary may impersonate this round, in id order; empty
    on even rounds, which never impersonate. It is the world's own roster,
    read and not changed."""
    adv.captured.extend(inbox)
    out: list[Envelope] = []
    if adv.behavior == "forge_join":
        # Alternate between claiming its own id and impersonating a real
        # sensor; either way the ciphertext is junk it cannot seal.
        if not victims:
            claimed = adv.id
            key_id = 10**6 - adv.id
        else:
            claimed = victims[(world.round // 2) % len(victims)]
            key_id = world.material.individual_keys[claimed].id
        adv.seq += 1
        ct = Ciphertext(key_id, world.rng.randbytes(9), world.rng.randbytes(8))
        out.append(Envelope(claimed, MessageKind.JOIN_REQ, ct, adv.seq, adv.id))
    elif adv.behavior == "forge_approve":
        # Sender equals transmitter, so the one-hop test passes; the tag
        # cannot, since no group key is held.
        gds = sorted(world.material.group_keys)
        if gds:
            key_id = world.material.group_keys[gds[world.round % len(gds)]].id
            adv.seq += 1
            ct = Ciphertext(key_id, world.rng.randbytes(17), world.rng.randbytes(8))
            out.append(Envelope(adv.id, MessageKind.JOIN_APRV, ct, adv.seq, adv.id))
    elif adv.behavior == "replay":
        for _ in range(min(4, len(adv.captured))):
            env = adv.captured.popleft()
            out.append(env._replace(transmitter=adv.id))
    return out


def step(world: World) -> None:
    """Advance the whole field by one round."""
    inboxes = _deliver(world)
    material = world.material
    events = world.events
    round_no = world.round

    world.sends += bs_step(world.bs, inboxes.get(BS_ID, []), round_no, material, events)[1]

    # Sensors that heard something or may have work, in id order; the base
    # station and adversaries (negative ids) step on their own.
    states = world.states
    busy = world._busy_sensors()
    order = sorted(busy.union(inboxes))
    for node in order[bisect_left(order, 0) :]:
        st = states[node]
        inbox = inboxes.get(node)
        if st.rank is not Rank.OS:  # a dominator, here for its inbox
            out = gd_step(st, inbox, round_no, material, events)[1]
        elif inbox is None and os_idle(st, round_no):
            continue  # nothing heard and nothing due: the step would be a no-op
        else:
            out = os_step(st, inbox or [], round_no, events)[1]
            if not _may_work(st):
                busy.discard(node)
            if st.rank is not Rank.OS or st.phase is Phase.LEFT:  # promoted or departed
                world._recast(node, Rank.OS)
        world.sends += out

    victims = world._role_index().victims if round_no % 2 else []
    for adv in sorted(world.adversaries, key=lambda a: -a.id):
        world.sends += _adversary_step(world, adv, inboxes.get(adv.id, []), victims)

    # Everything in the air went up this round. Adversary ids are below the
    # base station's; relays are sensors'.
    counters = world.counters
    hostile = map(BS_ID.__gt__, map(_TRANSMITTER, world.sends))
    counters.update(map(_COUNTERS.__getitem__, zip(map(_KIND, world.sends), hostile)))
    for copy, ids in world.relayed.values():
        counters[_COUNTERS[copy.kind, False]] += len(ids)

    world.round += 1
    if not world.formation_complete and _pending(world) == _SETTLED:
        world.formation_complete = True
        for st in world.states.values():
            st.post_formation = True


#: What ``_pending`` finds: nothing legitimate left to do; something left
#: that no later round can change; work that a later round may do.
_SETTLED, _QUIET, _BUSY = "settled", "quiet", "busy"


def _pending(world: World) -> str:
    """Whether the legitimate side still has work, and whether it can progress.

    Legitimate work is a sensor's or the base station's envelope in flight,
    a pending leave, an ordinary sensor not yet joined, or an undecided
    base-station record. The field is quiet when the only such work is
    ORPHAN sensors and nothing can move them: nothing is in flight, no
    adversary is on the field, and nothing is due. Every later round would
    then deliver nothing and step nobody.
    """
    stuck = False
    if world.relayed:  # sensors' relays
        return _BUSY
    for env in world.sends:
        if env.transmitter >= BS_ID:
            return _BUSY
    for st in world.states.values():
        if st.pending_leave:
            return _BUSY
        if st.rank is Rank.OS and st.phase not in (Phase.JOINED, Phase.LEFT):
            if st.phase is not Phase.ORPHAN:  # unannounced or awaiting approval
                return _BUSY
            stuck = True
    for rec in world.bs.orphans.values():
        if rec.resolution is None:
            return _BUSY
    if not stuck:
        return _SETTLED
    return _QUIET if not world.sends and not world.adversaries else _BUSY


def run(world: World, max_rounds: int = 64) -> World:
    """Step until the legitimate side settles or the round budget runs out.

    Adversary chatter alone never keeps the run alive. A quiet field (see
    ``_pending``) is not stepped: its remaining rounds are counted as spent,
    which leaves the world exactly as stepping them would.
    """
    start = world.round
    while world.round - start < max_rounds:
        state = _pending(world)
        if state == _QUIET:
            world.round = start + max_rounds
        if state != _BUSY:
            break
        step(world)
    return world


def inject_adversary(
    world: World,
    count: int = 1,
    behavior: str = "forge_join",
    positions: Sequence[tuple[float, float]] | None = None,
) -> list[int]:
    """Drop hostile radios on the field; ids run -2, -3, ...

    Positions are drawn uniformly unless given explicitly.
    """
    if behavior not in ADVERSARY_BEHAVIORS:
        raise ValueError(f"unknown adversary behavior {behavior!r}")
    if positions is not None and len(positions) != count:
        raise ValueError("need one position per adversary")
    ids = []
    for i in range(count):
        aid = -2 - len(world.adversaries)
        if positions is not None:
            pos = positions[i]
        else:
            pos = (world.rng.uniform(0.0, world.width), world.rng.uniform(0.0, world.height))
        world._place(aid, pos)
        world.adversaries.append(Adversary(aid, behavior))
        ids.append(aid)
    return ids


def late_join(world: World, node: int, position: tuple[float, float] | None = None) -> None:
    """Deploy a reserve sensor, or power a departed one back up."""
    st = world.states.get(node)
    if st is not None:
        if st.phase is not Phase.LEFT:
            raise ValueError(f"{node} is already deployed")
        if position is not None:
            world._place(node, position)
        st.phase = Phase.IDLE
        st.dominator = None
        st.join_round = None
        st.neighbor_dominators.clear()  # what it heard before it left
    elif node in world.material.reserve:
        world._place(node, position if position is not None else world.planned[node])
        world.states[node] = _fresh_state(world.material, node)
        world.states[node].post_formation = world.formation_complete
    else:
        raise ValueError(f"{node} is neither departed nor held in reserve")
    world._busy_sensors().add(node)
    world._recast(node, None)


def leave(world: World, node: int) -> None:
    """Schedule a graceful departure at the node's next step."""
    st = world.states.get(node)
    if st is None or st.rank not in (Rank.OS,):
        raise ValueError(f"{node} is not a deployed ordinary sensor")
    if st.phase is Phase.LEFT:
        raise ValueError(f"{node} already left")
    st.pending_leave = True
    world._busy_sensors().add(node)


def assemble_outcome(world: World) -> ClusterOutcome:
    """Fold final node states and base-station records into one summary."""
    states = world.states
    dominators, membership, failures = [], [], []
    for n in sorted(states):
        st = states[n]
        if st.rank is not Rank.OS:
            dominators.append(n)
        elif st.phase is Phase.JOINED:
            if st.dominator is not None:
                membership.append((n, st.dominator))
        elif st.phase is not Phase.LEFT:
            failures.append(n)
    mediators = []
    for gd in dominators:
        for os_id in states[gd].mediators:
            if os_id < 0 or os_id not in states:
                continue
            own = states[os_id].dominator
            if own is not None and own != gd:
                mediators.append((os_id, own, gd))
    orphan_log = []
    for os_id in sorted(world.bs.orphans):
        rec = world.bs.orphans[os_id]
        orphan_log.append((os_id, rec.resolution[0] if rec.resolution else "pending"))
    return ClusterOutcome(
        dominator_set=tuple(dominators),
        membership=tuple(membership),
        mediators=tuple(sorted(mediators)),
        orphan_log=tuple(orphan_log),
        coverage_failures=tuple(failures),
        message_count=tuple(sorted(world.counters.items())),
    )


@dataclass(frozen=True)
class VerifyReport:
    node_count: int
    dominator_count: int
    dominating: bool
    weakly_connected: bool
    graph_connected: bool
    fully_resolved: bool

    @property
    def ok(self) -> bool:
        return self.dominating and self.weakly_connected and self.fully_resolved


def verify_outcome(world: World, outcome: ClusterOutcome | None = None) -> VerifyReport:
    """Check the formed structure against the actual radio graph.

    The graph is the world's radio graph restricted to sensors still on the
    field; the base station and adversaries are not part of the dominating
    structure. The check runs on the radio index's edge arrays: a sensor is
    covered when it is a dominator or has an edge to one, and the set is
    dominating when every sensor on the field is covered. A dominating set's
    closed neighbourhood is the whole graph, so its weak connectivity (what
    ``graph.is_wcds`` checks) is the graph's connectivity.
    """
    if outcome is None:
        outcome = assemble_outcome(world)
    states = world.states
    ids, radio, _ = world.radio_index()
    on_field = [v in states and states[v].phase is not Phase.LEFT for v in ids]
    keep = np.array(on_field, dtype=bool)
    chosen = np.isin(ids, outcome.dominator_set) & keep
    src, dst = radio.pairs
    both = keep[src] & keep[dst]
    covered = chosen.copy()
    covered[dst[both & chosen[src]]] = True
    dominating = np.array_equal(covered, keep)
    renumber = np.cumsum(keep) - 1
    positions = [p for p, k in zip(radio.positions, on_field) if k]
    connected = is_connected(from_pairs(positions, radio.radius, renumber[src[both]], renumber[dst[both]]))
    return VerifyReport(
        node_count=len(positions),
        dominator_count=int(chosen.sum()),
        dominating=dominating,
        weakly_connected=dominating and connected,
        graph_connected=connected,
        fully_resolved=not outcome.coverage_failures,
    )


#: RunConfig's numeric fields: counts must be ints (not bools), the rest
#: finite real numbers, and the optional ones may also be None.
_COUNT_FIELDS = ("groups", "eta", "key_bits", "adversary_count", "seed", "max_rounds")
_REAL_FIELDS = ("width", "height", "radius", "target_degree", "sigma", "reserve_fraction")
_OPTIONAL_FIELDS = ("radius", "target_degree", "sigma")
#: The least value each bounded count may take.
_COUNT_MINIMA = {"groups": 1, "eta": 0, "max_rounds": 1, "adversary_count": 0}


@dataclass(frozen=True)
class RunConfig:
    """One simulated deployment, end to end.

    Construction checks the numeric fields' types, that the real ones are
    finite, that ``groups`` and ``max_rounds`` are at least 1, that ``eta``
    and ``adversary_count`` are not negative and that ``adversary_behavior``
    is one of ``ADVERSARY_BEHAVIORS``, and raises ``ValueError`` naming the
    field.
    """

    groups: int
    eta: int
    key_bits: int = 128
    mode: str = "uniform"
    width: float = 100.0
    height: float = 100.0
    radius: float | None = None
    target_degree: float | None = None
    sigma: float | None = None
    reserve_fraction: float = 0.0
    adversary_count: int = 0
    adversary_behavior: str = "forge_join"
    seed: int = 0
    max_rounds: int = 64

    def __post_init__(self):
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            try:
                finite = real and math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name, least in _COUNT_MINIMA.items():
            value = getattr(self, name)
            if value < least:
                bound = f"be at least {least}" if least else "not be negative"
                raise ValueError(f"{name} must {bound}, got {value}")
        if self.adversary_behavior not in ADVERSARY_BEHAVIORS:
            raise ValueError(
                f"adversary_behavior must be one of {ADVERSARY_BEHAVIORS}, got {self.adversary_behavior!r}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Parse a sim config, the one schema every caller goes through.

        Keys are the field names. The placement fields may instead sit in a
        nested ``placement`` object, and ``adversaries`` may give a count or
        an object ``{count, behavior}`` whose count defaults to 1. Unknown
        keys, and a field given both flat and nested, are errors.
        """
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        flat = dict(raw)
        nested = {name: flat.pop(name, None) for name in _NESTED_FIELDS}
        adversaries = nested["adversaries"]
        if isinstance(adversaries, int):
            nested["adversaries"] = {"count": adversaries}
        elif isinstance(adversaries, dict):
            nested["adversaries"] = {"count": 1, **adversaries}
        elif adversaries is not None:
            raise ValueError("adversaries must be a count or an object")
        for name, fields in _NESTED_FIELDS.items():
            sub = {} if nested[name] is None else nested[name]
            if not isinstance(sub, dict):
                raise ValueError(f"{name} must be a JSON object")
            unknown = set(sub) - set(fields)
            if unknown:
                raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
            for key, value in sub.items():
                if fields[key] in flat:
                    raise ValueError(f"{fields[key]} given both flat and in {name}")
                flat[fields[key]] = value
        unknown = set(flat) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**flat)

    def node_count(self) -> int:
        return self.groups * (self.eta + 1)

    def resolve_radius(self) -> float:
        if (self.radius is None) == (self.target_degree is None):
            raise ValueError("give exactly one of radius or target_degree")
        if self.radius is not None:
            return self.radius
        return radius_for_expected_degree(
            self.node_count(), self.width, self.height, self.target_degree
        )


def form_deployment(
    n: int,
    eta: int,
    width: float,
    height: float,
    radius: float,
    seed: int = 0,
    sigma: float | None = None,
) -> World:
    """Provision exactly n sensors into groups of up to eta members, deploy
    them group-clustered, and run cluster formation for ``run``'s default
    round budget."""
    material = provision(group_sizes_for(n, eta), seed=seed)
    placement = PlacementModel("group_clustered", width, height, radius, sigma=sigma)
    world = deploy(material, placement, seed=seed + 1_000_000_007)
    run(world)
    return world


def simulate(config: RunConfig) -> tuple[World, ClusterOutcome, VerifyReport]:
    """Provision, deploy, form clusters, and audit one world."""
    material = provision(
        [config.eta] * config.groups,
        key_bits=config.key_bits,
        reserve_fraction=config.reserve_fraction,
        seed=config.seed,
    )
    placement = PlacementModel(
        mode=config.mode,
        width=config.width,
        height=config.height,
        radius=config.resolve_radius(),
        sigma=config.sigma,
    )
    world = deploy(material, placement, seed=config.seed + 1)
    if config.adversary_count:
        inject_adversary(world, config.adversary_count, config.adversary_behavior)
    run(world, max_rounds=config.max_rounds)
    outcome = assemble_outcome(world)
    return world, outcome, verify_outcome(world, outcome)
