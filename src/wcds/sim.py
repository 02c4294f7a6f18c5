"""Field simulation: placement, lockstep radio transport, adversaries.

The world owns all state. Each round it delivers the transmissions of the
previous round to the entities within radio range of their transmitters,
steps the base station, the sensors and the adversaries in a fixed order,
and collects their outboxes for the next round. With the same provisioning
and seed, runs are byte-for-byte reproducible. Past transmissions are not
kept, only counted by kind in ``World.counters``.

Every set of protocol radios (sensors and the base station) in the radio
layer is one ``int`` bitmask: radio ``v`` is bit ``v + 1``, so the base
station (-1) is bit 0 and id order is bit order. Adversaries stay outside the
masks, in ascending tuples. The radio index keeps, per radio, the mask of
protocol radios in its range; the role index keeps, per part a radio plays
(each rank, the base station, and None for departed sensors), the mask of
the radios playing it.

Every sensor relays each flood (GD_ERR, ORP_ERR, ADOPT_CMD, PROMOTE_CMD)
once. The world keeps one record per flood, ``World.reached``: the mask of
protocol radios it has reached, starting with its origin. Each round the
copies of a flood in the air are walked by transmitter id, ties in
transmission order, and each copy reaches the radios in its range that the
flood has not reached yet. So the smallest transmitter wins: that is the
copy a step working through its sorted inbox would act on, and every other
copy is one it would drop as a duplicate. Departed sensors get nothing and
are not recorded, so a sensor that comes back while a flood is passing still
gets it.

Relaying is the radio layer's work, not a step's. The air holds a round's
transmissions in two parts. ``World.sends`` lists the copies that sensors,
the base station and adversaries originate or replay, in the order sent.
``World.relayed`` has one record per flood, in flood-key order: one copy of
the flood and the mask of the sensors relaying it, whose bits the message
count adds. A flood's next layer is the union of the relayers'
neighbourhoods less the radios it has reached and the departed ones. A relay
stays a bit until it reaches a radio whose step can act on it; only then
does delivery build it an envelope, from the lowest relayer in that radio's
range.

An inbox gets only the copies its radio's step can act on: of a flood the
winning copy, of any other kind every copy in range, as ``protocol``'s four
declarations allow. ``HANDLERS`` (the kinds each part's step reads) and
``HOP1_ONLY`` (the kinds it reads only from their sender) give, per kind and
whether the copy is heard at one hop, the parts that read it (``_READERS``,
built at import); each round ORs those parts' masks into one reader mask per
pair. ``ADDRESSED`` cuts a copy's readers to the owner of the key it is
sealed under (``_addressees``). ``FIRST_PER_SENDER`` keeps all but each
sensor's first hop-1 copy of the round out of every inbox. The handlers
drop every copy so withheld anyway, or act on none after the first, and
keep all their checks; the rules only spare building and stepping them.
Only ``replay`` adversaries read what they overhear: each gets every copy in
its range in transmission order, floods included; the other adversaries get
nothing.

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
out. The role index is kept the same way: a sensor's bit changes part only
where it leaves, is promoted or joins. The departed part is who delivery
skips, and the ordinary and departed parts are whom a ``forge_join``
adversary may impersonate. A run whose only open work is orphans that
nothing can reach any more (nothing in flight, no adversary, nothing due) is
not stepped at all: its remaining rounds are counted as spent, which leaves
the world as stepping them would have.

The radio graph is built once from a cell grid into each radio's neighbour
mask and adversary tuple, and the masks are the field's only copy of it. A
radio that comes onto the field or moves is spliced in: one distance pass
finds its neighbours, by the same rule as the grid, and only their entries
change. The union of neighbourhoods a flood's relayers span is kept under
the whole relayer mask, since the floods from one origin cross the field in
the same layers; a new mask's union is built a byte of the mask at a time,
from per-byte unions kept too. Both live on the radio index, so a splice
drops them. Within a round, floods on one front (equal relayer and reached
masks) share one ``reach`` and one new layer.

The envelope's ``transmitter`` field is the radio that emitted the copy.
Each emitter sets it to its own id, on the copies it relays or replays too,
and delivery reaches only the radios in range of it. So an adversary can
forge every claimed field but not where a copy actually came from.

The enum members that the per-sensor and per-message paths read are bound to
module names once, and hoisted into locals in the whole-field loops: on
Python 3.11 every read of an enum class's attribute takes a slow path.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter, deque
from itertools import chain
from numbers import Real
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graph import radius_for_expected_degree, unit_disk_graph
from .keys import Ciphertext, KeyMaterial, Rank, group_sizes_for, provision
from .protocol import (
    ADDRESSED,
    BS_ID,
    BSState,
    ClusterOutcome,
    Envelope,
    FIRST_PER_SENDER,
    HANDLERS,
    HOP1_ONLY,
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

#: The enum members the per-sensor and per-message paths read, bound once.
#: On Python 3.11 an enum class's attribute reads take ``EnumType``'s slow
#: path: on 3.11.7 ``Phase.LEFT`` costs 180-200 ns against 14 ns for a module
#: global, and ``x in (Phase.JOINED, Phase.LEFT)`` 403 ns against 47 ns for a
#: prebuilt tuple. The whole-field loops hoist these into locals as well.
_OS = Rank.OS
_IDLE, _AWAITING, _JOINED, _ORPHAN, _LEFT = Phase.IDLE, Phase.AWAITING, Phase.JOINED, Phase.ORPHAN, Phase.LEFT
_SETTLED_PHASES = (_JOINED, _LEFT)
_JOIN_REQ, _JOIN_APRV = MessageKind.JOIN_REQ, MessageKind.JOIN_APRV

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


#: The bit positions set in each byte value, ascending.
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _mask_of(ids: Iterable[int]) -> int:
    """The radio mask of the protocol radios ``ids``: bit ``v + 1`` per id."""
    mask = 0
    for v in ids:
        mask |= 1 << (v + 1)
    return mask


def _ids_of(mask: int) -> list[int]:
    """The protocol radios of a radio mask, in ascending id order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 2)
        mask ^= low
    return out


class RadioIndex(NamedTuple):
    """The unit-disk graph over every radio on the field (sensors, the base
    station and adversaries): per radio, the mask of protocol radios
    (sensors and base station) and the ascending adversary ids in its range.
    ``reaches`` keeps ``reach``'s answers by whole mask and ``unions`` its
    per-byte unions, for this index only; a splice makes a new index with
    neither."""

    neighbors: dict[int, tuple[int, tuple[int, ...]]]
    reaches: dict[int, int]
    unions: dict[int, int]

    def reach(self, mask: int) -> int:
        """The protocol radios in range of any radio of ``mask``, kept under
        the mask: the floods from one origin cross the field in the same
        layers. ``_deliver`` asks once per front a round: floods on one front
        share the answer. A new mask is built from its non-zero bytes: byte
        ``b`` at byte ``i`` adds the union of its radios' neighbourhoods,
        built on first use and kept under ``i << 8 | b``."""
        out = self.reaches.get(mask)
        if out is not None:
            return out
        neighbors, unions = self.neighbors, self.unions
        out = 0
        for i, b in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
            if b:
                key = i << 8 | b
                union = unions.get(key)
                if union is None:
                    union = 0
                    for j in _BYTE_BITS[b]:
                        union |= neighbors[8 * i + j - 1][0]
                    unions[key] = union
                out |= union
        self.reaches[mask] = out
        return out


def _kth_id(mask: int, k: int) -> int:
    """``_ids_of(mask)[k]`` for ``0 <= k < mask.bit_count()``: the lowest
    bit with ``k`` set bits below it, found by bisecting on bit counts."""
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo - 1


#: The parts a radio plays: a rank, ``BS_ID`` for the base station, or None
#: for a departed sensor.
_PARTS = (*Rank, BS_ID, None)

#: Per (kind, heard at one hop), the parts whose steps read it: those with a
#: handler for the kind (``protocol.HANDLERS``), less, for a copy whose
#: transmitter is not its sender, those that read it only at one hop
#: (``protocol.HOP1_ONLY``).
_READERS = {
    (kind, hop1): tuple(p for p, on in HANDLERS.items() if kind in on and (hop1 or kind not in HOP1_ONLY[p]))
    for kind in MessageKind
    for hop1 in (True, False)
}


def _may_work(st: NodeState) -> bool:
    """Whether an ordinary sensor may act on an empty inbox: it has not
    announced, awaits an approval, or has a leave pending."""
    return st.rank is _OS and (st.pending_leave or st.phase is _IDLE or st.phase is _AWAITING)


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
    #: the mask of the sensors relaying it.
    sends: list[Envelope] = field(default_factory=list)
    relayed: dict[tuple, tuple[Envelope, int]] = field(default_factory=dict)
    counters: Counter[str] = field(default_factory=Counter)
    events: list[dict] = field(default_factory=list)
    #: Per flood key, the mask of protocol radios the flood has reached: its
    #: origin and every radio delivered a copy. Departed sensors are never
    #: added.
    reached: dict[tuple, int] = field(default_factory=dict)
    formation_complete: bool = False
    #: Indices built on first use, from ``positions`` and ``states``, and
    #: then kept up to date in place: the radio index (``_place`` splices
    #: each radio that comes onto the field or moves), the ordinary sensors
    #: that may have work (``_may_work``) and, per part (``_PARTS``), the
    #: mask of the radios playing it.
    _radio: RadioIndex | None = None
    _busy: set[int] | None = None
    _roles: dict[Rank | int | None, int] | None = None

    def radio_index(self) -> RadioIndex:
        """The radio index of the field as it stands, built on first use."""
        if self._radio is None:
            ids = sorted(self.positions)
            src, dst = unit_disk_graph([self.positions[v] for v in ids], self.radius).pairs
            # Adversary ids sort first: pairs whose dst is past them go into
            # the masks, one little-endian row of bytes per radio, and the
            # rest into the adversary tuples, in id order.
            split = bisect_left(ids, BS_ID)
            width = (ids[-1] + 9) // 8  # bytes up to the highest id's bit, v + 1
            listens = dst >= split
            bits = np.asarray(ids)[dst[listens]] + 1
            rows = np.zeros((len(ids), width), np.uint8)
            np.bitwise_or.at(rows, (src[listens], bits >> 3), np.left_shift(1, bits & 7).astype(np.uint8))
            raw = memoryview(rows).cast("B")  # rows in place, a row copied at a time
            advs: dict[int, list[int]] = {}
            for i, a in zip(src[~listens].tolist(), dst[~listens].tolist()):
                advs.setdefault(i, []).append(ids[a])
            neighbors = {
                v: (int.from_bytes(raw[i * width : (i + 1) * width], "little"), tuple(advs.get(i, ())))
                for i, v in enumerate(ids)
            }
            self._radio = RadioIndex(neighbors, {}, {})
        return self._radio

    def _busy_sensors(self) -> set[int]:
        """The ordinary sensors that may act on an empty inbox."""
        if self._busy is None:
            self._busy = {v for v, st in self.states.items() if _may_work(st)}
        return self._busy

    def _role_index(self) -> dict[Rank | int | None, int]:
        """Per part, the mask of the radios playing it, built on first use."""
        if self._roles is None:
            self._roles = dict.fromkeys(_PARTS, 0)
            self._roles[BS_ID] = _mask_of((BS_ID,))
            for v, st in self.states.items():
                self._roles[None if st.phase is _LEFT else st.rank] |= _mask_of((v,))
        return self._roles

    def _recast(self, node: int, was: Rank | None) -> None:
        """Move a sensor in the role index from the part it played, ``was``
        (its rank, or None when departed or not yet on the field), to the
        part its state gives it now."""
        roles = self._role_index()
        st = self.states[node]
        bit = _mask_of((node,))
        roles[was] &= ~bit
        roles[None if st.phase is _LEFT else st.rank] |= bit

    @property
    def inflight(self) -> list[Envelope]:
        """The air as one list of transmissions, in transmission order."""
        return _transmissions(self.sends, self.relayed)

    def _place(self, radio: int, position: tuple[float, float]) -> None:
        """Put a radio on the field, or move it, and splice it into the radio
        index if one is built. ``position`` must be exactly two finite
        numbers; it is stored as two floats. A refused position changes
        nothing."""
        spot = _spot(position)
        if self._radio is not None:
            self._radio = _splice(self._radio, self.positions, self.radius, radio, spot)
        self.positions[radio] = spot


def _spot(position) -> tuple[float, float]:
    """``position`` as two floats; ValueError unless it is exactly two finite
    numbers."""
    try:
        x, y = position
    except (TypeError, ValueError):
        x = y = None
    if not (isinstance(x, Real) and isinstance(y, Real)):
        raise ValueError(f"a position is two numbers, got {position!r}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("positions must be finite")
    return float(x), float(y)


def _splice(
    index: RadioIndex,
    positions: dict[int, tuple[float, float]],
    radius: float,
    radio: int,
    position: tuple[float, float],
) -> RadioIndex:
    """``index``, the radio index over ``positions``, with ``radio`` taken
    off the field, if it is on it, and put at ``position``. Only the radio's
    neighbours' entries change, in place. The new index starts with no kept
    reaches or unions: any of the old ones may hold a changed neighbourhood.
    The neighbours are found in one distance pass under
    ``graph._disk_graph``'s rule, ``dx*dx + dy*dy <= r*r`` in float64, so the
    result equals a rebuild. Every position is a pair (``deploy`` draws
    them, ``World._place`` checks the rest), so the coordinates are read as
    one flat run."""
    x, y = position
    neighbors = index.neighbors
    bit = 0 if radio < BS_ID else _mask_of((radio,))
    if radio in neighbors:  # a move: off the field first
        listeners, adversaries = neighbors.pop(radio)
        for u in (*adversaries, *_ids_of(listeners)):
            near, advs = neighbors[u]
            if radio < BS_ID:
                neighbors[u] = (near, tuple(a for a in advs if a != radio))
            else:
                neighbors[u] = (near & ~bit, advs)
    ids = list(positions)
    xy = np.fromiter(chain.from_iterable(positions.values()), np.float64, 2 * len(positions)).reshape(-1, 2)
    r = float(radius)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = xy[:, 0] - x
        dy = xy[:, 1] - y
        hit = np.flatnonzero(dx * dx + dy * dy <= r * r)
    near = sorted(ids[j] for j in hit.tolist() if ids[j] != radio)
    split = bisect_left(near, BS_ID)
    for u in near:
        listeners, adversaries = neighbors[u]
        if radio < BS_ID:
            neighbors[u] = (listeners, tuple(sorted((*adversaries, radio))))
        else:
            neighbors[u] = (listeners | bit, adversaries)
    neighbors[radio] = (_mask_of(near[split:]), tuple(near[:split]))
    return RadioIndex(neighbors, {}, {})


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
    sends: list[Envelope],
    relayed: dict[tuple, tuple[Envelope, int]],
    near: tuple[int, tuple[int, ...]] | None = None,
) -> list[Envelope]:
    """The air as one list in transmission order (see the module docstring),
    or only the copies whose transmitter is in ``near``, one radio's entry of
    ``RadioIndex.neighbors``."""
    owed: dict[int, list[Envelope]] = {}
    for (sender, kind, ct, seq, _), relayers in relayed.values():
        for r in _ids_of(relayers if near is None else relayers & near[0]):
            owed.setdefault(r, []).append(Envelope(sender, kind, ct, seq, r))
    queue = sorted(owed, reverse=True)
    out: list[Envelope] = []
    for env in sends:
        t = env.transmitter
        if near is not None and not (t in near[1] if t < BS_ID else near[0] >> (t + 1) & 1):
            continue
        # A sensor's relays go ahead of its own sends and of every later
        # sender's; adversaries (ids below the base station's) send last.
        while queue and (t < BS_ID or t >= queue[-1]):
            out += owed[queue.pop()]
        out.append(env)
    for r in reversed(queue):
        out += owed[r]
    return out


def _addressees(material: KeyMaterial, env: Envelope) -> int:
    """The radios that ``env``'s key lets it go to (``protocol.ADDRESSED``):
    the owner of the key it is sealed under, none when no node owns that
    key, and every radio (-1, all bits set) when its kind and key name no
    one reader."""
    group_too = ADDRESSED.get(env.kind)
    if group_too is None:
        return -1
    key_id = env.ciphertext.key_id
    owner = material.owners.get(key_id)
    if owner is None:
        return 0
    if not group_too:
        own = material.individual_keys.get(owner)
        if own is None or own.id != key_id:  # a group key, held by members no index keeps
            return -1
    return 1 << (owner + 1)


def _deliver(world: World) -> dict[int, list[Envelope]]:
    """Empty the air, by the rule in the module docstring, into the inboxes
    of the radios whose steps can act on each copy, and into those of the
    ``replay`` adversaries, and record in ``World.relayed`` the sensors that
    relay each flood this round. Departed sensors receive nothing. Floods
    whose relayer and reached masks agree share one ``reach`` and one new
    layer; a relay's addressees are looked up only when its layer holds
    readers."""
    material = world.material
    index = world.radio_index()
    neighbors = index.neighbors
    parts = world._role_index()
    left = parts[None]
    reads = {}
    for key, readers in _READERS.items():
        mask = 0
        for part in readers:
            mask |= parts[part]
        reads[key] = mask
    sends, relayed = world.sends, world.relayed
    world.sends, world.relayed = [], {}
    inboxes: dict[int, list[Envelope]] = {}
    for adv in world.adversaries:
        if adv.behavior == "replay":  # the only behaviour that reads what it overhears
            inboxes[adv.id] = _transmissions(sends, relayed, neighbors[adv.id])
    floods: dict[tuple, list[Envelope]] = {}
    firsts: set[tuple[MessageKind, int]] = set()  # FIRST_PER_SENDER copies delivered
    for env in sends:
        kind = env.kind
        if kind in FLOOD_KINDS:
            floods.setdefault(flood_key(env), []).append(env)
            continue
        hop1 = env.transmitter == env.sender
        if hop1 and kind in FIRST_PER_SENDER and env.sender >= 0:
            # A sensor's sends are in seq order, so its first copy is its lowest.
            if (kind, env.sender) in firsts:
                continue
            firsts.add((kind, env.sender))
        readers = reads[kind, hop1] & _addressees(material, env)
        for rcv in _ids_of(neighbors[env.transmitter][0] & readers):
            inboxes.setdefault(rcv, []).append(env)
    all_reached = world.reached
    # Per relayer mask, the reached mask a flood last advanced from and its
    # new layer: a flood on the same front this round shares both.
    fronts: dict[int, tuple[int, int]] = {}
    # With no copy sent as such, the relayed floods are all, in key order.
    for key in sorted(floods.keys() | relayed.keys()) if floods else relayed:
        copies = floods.get(key, [])
        reached = all_reached.get(key)
        if reached is None:  # the flood's first round in the air: only its origin sent it
            # (an adversary sending under its own id has no bit to set)
            reached = _mask_of(e.sender for e in copies if e.transmitter == e.sender >= BS_ID)
        start = reached
        kind = key[0]
        # Copies sent as such (the origin's, replays) come from the origin or
        # an adversary, whose ids sort ahead of every sensor relaying the flood.
        copies.sort(key=_TRANSMITTER)
        for env in copies:
            fresh = neighbors[env.transmitter][0] & ~(reached | left)
            reached |= fresh
            readers = reads[kind, env.transmitter == env.sender] & _addressees(material, env)
            for rcv in _ids_of(fresh & readers):
                inboxes.setdefault(rcv, []).append(env)
        if key in relayed:
            copy, relayers = relayed[key]
            front = fronts.get(relayers)
            if front is not None and front[0] == reached:
                fresh = front[1]
            else:
                fresh = index.reach(relayers) & ~(reached | left)
                fronts[relayers] = (reached, fresh)
            reached |= fresh
            sender, kind, ct, seq, _ = copy
            # A relayed copy is never heard at one hop: the flood reached its
            # origin first, so the origin relays nothing.
            readers = fresh & reads[kind, False]
            if readers:
                readers &= _addressees(material, copy)
            # Of the copies a reader hears, the smallest relayer's wins: the
            # lowest bit of the relayers in its range.
            for rcv in _ids_of(readers):
                heard = relayers & neighbors[rcv][0]
                winner = (heard & -heard).bit_length() - 2
                inboxes.setdefault(rcv, []).append(Envelope(sender, kind, ct, seq, winner))
        else:
            copy = copies[0]
        all_reached[key] = reached
        relaying = (reached ^ start) & ~1  # newly reached, less the base station's bit 0
        if relaying:
            world.relayed[key] = (copy, relaying)
    return inboxes


def _adversary_step(
    world: World, adv: Adversary, inbox: list[Envelope], victims: int
) -> list[Envelope]:
    """One adversary's round. ``victims`` is the mask of the sensors a
    ``forge_join`` adversary may impersonate this round: the ordinary ones,
    departed ones included. It is the world's role index read, not kept, and
    0 on even rounds, which never impersonate. On odd rounds the adversary
    claims the mask's id number ``round // 2``, in id order, wrapping round."""
    adv.captured.extend(inbox)
    out: list[Envelope] = []
    if adv.behavior == "forge_join":
        # Alternate between claiming its own id and impersonating a real
        # sensor; either way the ciphertext is junk it cannot seal.
        if not victims:
            claimed = adv.id
            key_id = 10**6 - adv.id
        else:
            claimed = _kth_id(victims, (world.round // 2) % victims.bit_count())
            key_id = world.material.individual_keys[claimed].id
        adv.seq += 1
        ct = Ciphertext(key_id, world.rng.randbytes(9), world.rng.randbytes(8))
        out.append(Envelope(claimed, _JOIN_REQ, ct, adv.seq, adv.id))
    elif adv.behavior == "forge_approve":
        # Sender equals transmitter, so the one-hop test passes; the tag
        # cannot, since no group key is held.
        gds = sorted(world.material.group_keys)
        if gds:
            key_id = world.material.group_keys[gds[world.round % len(gds)]].id
            adv.seq += 1
            ct = Ciphertext(key_id, world.rng.randbytes(17), world.rng.randbytes(8))
            out.append(Envelope(adv.id, _JOIN_APRV, ct, adv.seq, adv.id))
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
    os_rank, left = _OS, _LEFT
    for node in order[bisect_left(order, 0) :]:
        st = states[node]
        inbox = inboxes.get(node)
        if st.rank is not os_rank:  # a dominator, here for its inbox
            out = gd_step(st, inbox, round_no, material, events)[1]
        elif inbox is None and os_idle(st, round_no):
            continue  # nothing heard and nothing due: the step would be a no-op
        else:
            out = os_step(st, inbox or [], round_no, events)[1]
            if not _may_work(st):
                busy.discard(node)
            if st.rank is not os_rank or st.phase is left:  # promoted or departed
                world._recast(node, os_rank)
        world.sends += out

    parts = world._role_index()
    victims = parts[os_rank] | parts[None] if round_no % 2 else 0
    for adv in sorted(world.adversaries, key=lambda a: -a.id):
        world.sends += _adversary_step(world, adv, inboxes.get(adv.id, []), victims)

    # Everything in the air went up this round. Adversary ids are below the
    # base station's; relays are sensors'.
    counters = world.counters
    hostile = map(BS_ID.__gt__, map(_TRANSMITTER, world.sends))
    counters.update(map(_COUNTERS.__getitem__, zip(map(_KIND, world.sends), hostile)))
    for copy, relayers in world.relayed.values():
        counters[_COUNTERS[copy.kind, False]] += relayers.bit_count()

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
    if world._busy_sensors():  # sensors the scan below would find with work
        return _BUSY
    os_rank, settled, orphan = _OS, _SETTLED_PHASES, _ORPHAN
    for st in world.states.values():
        if st.pending_leave:
            return _BUSY
        if st.rank is os_rank and st.phase not in settled:
            if st.phase is not orphan:  # unannounced or awaiting approval
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

    Positions are drawn uniformly unless given explicitly. Given ones are
    all checked before any adversary is placed, so a refused batch places
    none.
    """
    if behavior not in ADVERSARY_BEHAVIORS:
        raise ValueError(f"unknown adversary behavior {behavior!r}")
    if positions is not None:
        if len(positions) != count:
            raise ValueError("need one position per adversary")
        positions = [_spot(pos) for pos in positions]
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
        if st.phase is not _LEFT:
            raise ValueError(f"{node} is already deployed")
        if position is not None:
            world._place(node, position)
        st.phase = _IDLE
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
    if st is None or st.rank is not _OS:
        raise ValueError(f"{node} is not a deployed ordinary sensor")
    if st.phase is _LEFT:
        raise ValueError(f"{node} already left")
    st.pending_leave = True
    world._busy_sensors().add(node)


def assemble_outcome(world: World) -> ClusterOutcome:
    """Fold final node states and base-station records into one summary."""
    states = world.states
    dominators, membership, failures = [], [], []
    os_rank, joined, left = _OS, _JOINED, _LEFT
    for n in sorted(states):
        st = states[n]
        if st.rank is not os_rank:
            dominators.append(n)
        elif st.phase is joined:
            if st.dominator is not None:
                membership.append((n, st.dominator))
        elif st.phase is not left:
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
    structure. Both answers are read off the radio index's neighbour masks,
    each ANDed with the mask of the sensors on the field, so no other radio
    bridges two sensors. The dominators on the field dominate when their
    closed neighbourhoods cover that mask; the graph is connected when a
    walk of frontiers from its lowest sensor reaches all of it. A dominating
    set's closed neighbourhood is the whole graph, so its weak connectivity
    (what ``graph.is_wcds`` checks) is the graph's connectivity. The walk
    ORs the masks itself, so a check leaves ``RadioIndex.reach``'s memo as
    it was.
    """
    if outcome is None:
        outcome = assemble_outcome(world)
    states = world.states
    neighbors = world.radio_index().neighbors
    left = _LEFT
    on_field = _mask_of(v for v, st in states.items() if st.phase is not left)
    chosen = _mask_of(v for v in outcome.dominator_set if v in states) & on_field
    covered = chosen
    for v in _ids_of(chosen):
        covered |= neighbors[v][0]
    dominating = not on_field & ~covered
    seen = frontier = on_field & -on_field
    while frontier:
        near = 0
        for v in _ids_of(frontier):
            near |= neighbors[v][0]
        frontier = near & on_field & ~seen
        seen |= frontier
    connected = seen == on_field
    return VerifyReport(
        node_count=on_field.bit_count(),
        dominator_count=chosen.bit_count(),
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
