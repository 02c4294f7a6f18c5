"""Field simulation: placement, the round loop, adversaries and churn.

The world owns all state. Each round ``step`` hands the air to the radio
layer (``radio.deliver``), which empties it into inboxes; then it steps the
base station, the sensors and the adversaries in a fixed order and collects
their sends, and the relays delivery recorded, as the next round's air.
With the same provisioning and seed, runs are byte-for-byte reproducible.
Past transmissions are not kept, only counted by kind in ``World.counters``.

Each round steps, in id order, the sensors with an inbox and the busy
ones: the ordinary sensors that have not announced, await an approval or
have a leave pending. ``leave`` and ``late_join`` add a sensor to the busy
set, and a step that leaves it with none of those drops it. The role index,
per part a radio plays the mask of the radios playing it, is kept the same
way: a sensor's bit changes part only where it leaves, is promoted or joins.
A run whose only open work is orphans that nothing can reach any more
(nothing in flight, no adversary, nothing due) is not stepped at all: its
remaining rounds are counted as spent, which leaves the world as stepping
them would have.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter, deque
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Sequence

from .graph import radius_for_expected_degree
from .keys import Ciphertext, KeyMaterial, Rank, group_sizes_for, provision
from .protocol import BS_ID, BSState, ClusterOutcome, Envelope, NodeState, Phase, bs_step, gd_step, os_step
from .radio import RadioIndex, build_index, deliver, kth_id, mask_of, splice, spot, transmissions
from .wire import MessageKind

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
#: prebuilt tuple.
_OS, _GD, _GD_OS = Rank.OS, Rank.GD, Rank.GD_OS
_IDLE, _AWAITING, _JOINED, _ORPHAN, _LEFT = Phase.IDLE, Phase.AWAITING, Phase.JOINED, Phase.ORPHAN, Phase.LEFT
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


#: The parts a radio plays: a rank, ``BS_ID`` for the base station, or None
#: for a departed sensor.
_PARTS = (*Rank, BS_ID, None)


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
    #: The air, until delivered (see ``radio``). ``sends``: the
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
            self._radio = build_index(self.positions, self.radius)
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
            self._roles[BS_ID] = mask_of((BS_ID,))
            for v, st in self.states.items():
                self._roles[None if st.phase is _LEFT else st.rank] |= mask_of((v,))
        return self._roles

    def _recast(self, node: int, was: Rank | None) -> None:
        """Move a sensor in the role index from the part it played, ``was``
        (its rank, or None when departed or not yet on the field), to the
        part its state gives it now."""
        roles = self._role_index()
        st = self.states[node]
        bit = mask_of((node,))
        roles[was] &= ~bit
        roles[None if st.phase is _LEFT else st.rank] |= bit

    @property
    def inflight(self) -> list[Envelope]:
        """The air as one list of transmissions, in transmission order."""
        return transmissions(self.sends, self.relayed)

    def _place(self, radio: int, position: tuple[float, float]) -> None:
        """Put a radio on the field, or move it, and splice it into the radio
        index if one is built. ``position`` must be exactly two finite
        numbers; it is stored as two floats. A refused position changes
        nothing."""
        at = spot(position)
        if self._radio is not None:
            self._radio = splice(self._radio, self.radius, radio, at)
        self.positions[radio] = at


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
            claimed = kth_id(victims, (world.round // 2) % victims.bit_count())
            key_id = world.material.rings[claimed].individual.id
        adv.seq += 1
        ct = Ciphertext(key_id, world.rng.randbytes(9), world.rng.randbytes(8))
        out.append(Envelope(claimed, _JOIN_REQ, ct, adv.seq, adv.id))
    elif adv.behavior == "forge_approve":
        # Sender equals transmitter, so the one-hop test passes; the tag
        # cannot, since no group key is held.
        groups = world.material.groups
        if groups:
            gd, _ = groups[world.round % len(groups)]
            key_id = world.material.rings[gd].group.id
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
    material = world.material
    replayers = [adv.id for adv in world.adversaries if adv.behavior == "replay"]
    inboxes, relays = deliver(
        world.sends, world.relayed, world.reached, world.radio_index(), world._role_index(), material, replayers
    )
    world.sends, world.relayed = [], relays
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
        if st.rank is not _OS:  # a dominator, here for its inbox
            out = gd_step(st, inbox, round_no, material, events)[1]
        else:
            out = os_step(st, inbox or [], round_no, events)[1]
            if not _may_work(st):
                busy.discard(node)
            if st.rank is not _OS or st.phase is _LEFT:  # promoted or departed
                world._recast(node, _OS)
        world.sends += out

    parts = world._role_index()
    victims = parts[_OS] | parts[None] if round_no % 2 else 0
    for adv in world.adversaries:
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
    a busy sensor (a pending leave, or an ordinary sensor not yet announced
    or awaiting approval), an undecided base-station record, or an ORPHAN
    ordinary sensor. The field is quiet when the only such work is ORPHAN
    sensors and nothing can move them: nothing is in flight, no adversary is
    on the field, and nothing is due. Every later round would then deliver
    nothing and step nobody.
    """
    if world.relayed:  # sensors' relays
        return _BUSY
    for env in world.sends:
        if env.transmitter >= BS_ID:
            return _BUSY
    if world._busy_sensors():
        return _BUSY
    for rec in world.bs.orphans.values():
        if rec.resolution is None:
            return _BUSY
    for st in world.states.values():
        if st.phase is _ORPHAN and st.rank is _OS:
            return _QUIET if not world.sends and not world.adversaries else _BUSY
    return _SETTLED


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
    """Drop hostile radios on the field; ids run -2, -3, ... in the order
    they are appended to ``world.adversaries``, which is the order they step.

    Positions are drawn uniformly unless given explicitly. Given ones are
    all checked before any adversary is placed, so a refused batch places
    none.
    """
    if behavior not in ADVERSARY_BEHAVIORS:
        raise ValueError(f"unknown adversary behavior {behavior!r}")
    if count < 0:
        raise ValueError(f"adversary count must not be negative, got {count}")
    if positions is not None:
        if len(positions) != count:
            raise ValueError("need one position per adversary")
        positions = [spot(pos) for pos in positions]
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
    for n in sorted(states):
        st = states[n]
        if st.rank is not _OS:
            dominators.append(n)
        elif st.phase is _JOINED:
            if st.dominator is not None:
                membership.append((n, st.dominator))
        elif st.phase is not _LEFT:
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
    field: the role index's ranked parts, departed sensors being its None
    part. The base station and adversaries are not part of the dominating
    structure. Both answers are read off the radio index's ``reach``, each
    ANDed with the mask of the sensors on the field, so no other radio
    bridges two sensors. The dominators on the field dominate when their
    closed neighbourhoods cover that mask; the graph is connected when a
    walk of frontiers from its lowest sensor reaches all of it. A dominating
    set's closed neighbourhood is the whole graph, so its weak connectivity
    (what ``graph.is_wcds`` checks) is the graph's connectivity.
    """
    if outcome is None:
        outcome = assemble_outcome(world)
    states = world.states
    reach = world.radio_index().reach
    roles = world._role_index()
    on_field = roles[_GD] | roles[_OS] | roles[_GD_OS]
    chosen = mask_of(v for v in outcome.dominator_set if v in states) & on_field
    dominating = not on_field & ~(chosen | reach(chosen))
    seen = frontier = on_field & -on_field
    while frontier:
        frontier = reach(frontier) & on_field & ~seen
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
