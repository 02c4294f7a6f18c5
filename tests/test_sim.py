import copy
import dataclasses
import math
from collections import Counter
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies

import wcds.sim as sim_module
from conftest import make_world, record_transmissions
from test_golden import SIM_CASES as GOLDEN_CASES, churn_world, race_run
from wcds.graph import is_connected, is_dominating, is_wcds, radius_for_expected_degree, unit_disk_graph
from wcds.keys import Rank, provision
from wcds.protocol import (
    APPROVAL_TIMEOUT,
    BS_ID,
    HANDLERS,
    Phase,
    _inbox_key,
    flood_key,
)
from wcds.sim import (
    ADVERSARY_BEHAVIORS,
    PLACEMENT_MODES,
    PlacementModel,
    RunConfig,
    VerifyReport,
    assemble_outcome,
    deploy,
    form_deployment,
    inject_adversary,
    late_join,
    leave,
    run,
    simulate,
    step,
    verify_outcome,
)
from wcds.wire import FLOOD_KINDS, MessageKind


def line_world(material, spots, radius=12.0):
    positions = {BS_ID: (0.0, 0.0)}
    positions.update(spots)
    return make_world(material, positions, radius=radius)


def rebuilt(world):
    """A copy of ``world`` sharing its state but none of its indices, so each
    is built afresh from ``positions`` and ``states`` on first use."""
    twin = copy.copy(world)
    twin._radio = twin._busy = twin._roles = None
    return twin


class TestPlacement:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PlacementModel("ring", 100.0, 100.0, 10.0)
        with pytest.raises(ValueError):
            PlacementModel("uniform", 0.0, 100.0, 10.0)
        with pytest.raises(ValueError):
            PlacementModel("uniform", 100.0, 100.0, 10.0, sigma=-1.0)

    def test_spread_defaults_to_half_radius(self):
        assert PlacementModel("uniform", 100.0, 100.0, 30.0).spread == 15.0
        assert PlacementModel("uniform", 100.0, 100.0, 30.0, sigma=4.0).spread == 4.0

    def test_uniform_deploy_layout(self):
        m = provision([2, 2])
        w = deploy(m, PlacementModel("uniform", 100.0, 100.0, 20.0), seed=3)
        assert set(w.positions) == {BS_ID, 0, 1, 2, 3, 4, 5}
        assert w.positions[BS_ID] == (50.0, 50.0)
        for node, (x, y) in w.positions.items():
            assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0

    def test_clustered_members_stay_near_their_anchor(self):
        m = provision([6, 6])
        pm = PlacementModel("group_clustered", 100.0, 100.0, 20.0, sigma=5.0)
        w = deploy(m, pm, seed=11)
        for gd, members in m.groups:
            ax, ay = w.positions[gd]
            for node in members:
                mx, my = w.positions[node]
                assert abs(mx - ax) <= 6 * pm.spread
                assert abs(my - ay) <= 6 * pm.spread

    def test_reserves_planned_but_not_placed(self):
        m = provision([4], reserve_fraction=0.5)
        w = deploy(m, PlacementModel("uniform", 100.0, 100.0, 20.0), seed=0)
        assert m.reserve == {3, 4}
        assert 3 not in w.positions and 3 not in w.states
        assert 3 in w.planned and 4 in w.planned

    def test_deploy_deterministic(self):
        m = provision([3])
        pm = PlacementModel("group_clustered", 80.0, 60.0, 15.0)
        a = deploy(m, pm, seed=21)
        b = deploy(provision([3]), pm, seed=21)
        assert a.positions == b.positions


class TestRunConfig:
    def test_node_count(self):
        assert RunConfig(groups=10, eta=9, radius=20.0).node_count() == 100

    def test_radius_exclusivity(self):
        with pytest.raises(ValueError):
            RunConfig(groups=2, eta=4).resolve_radius()
        with pytest.raises(ValueError):
            RunConfig(groups=2, eta=4, radius=10.0, target_degree=6.0).resolve_radius()

    def test_target_degree_resolution(self):
        cfg = RunConfig(groups=10, eta=9, target_degree=6.0)
        assert cfg.resolve_radius() == radius_for_expected_degree(100, 100.0, 100.0, 6.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"groups": 2, "eta": 4, "radios": 3})
        with pytest.raises(ValueError, match="config must be a JSON object"):
            RunConfig.from_dict([("groups", 2)])
        cfg = RunConfig.from_dict({"groups": 2, "eta": 4, "radius": 10.0})
        assert cfg.groups == 2

    def test_nested_placement_matches_flat_keys(self):
        placement = {
            "mode": "group_clustered", "width": 80.0, "height": 60.0, "target_degree": 8.0, "sigma": 3.0,
        }
        nested = RunConfig.from_dict({"groups": 2, "eta": 4, "placement": placement})
        assert nested == RunConfig.from_dict({"groups": 2, "eta": 4, **placement})
        assert nested.mode == "group_clustered" and nested.target_degree == 8.0

    def test_adversaries_as_count_or_object(self):
        base = {"groups": 2, "eta": 4, "radius": 10.0}
        flat = RunConfig.from_dict({**base, "adversary_count": 3})
        assert RunConfig.from_dict({**base, "adversaries": 3}) == flat
        assert RunConfig.from_dict({**base, "adversaries": {"count": 3}}) == flat
        cfg = RunConfig.from_dict({**base, "adversaries": {"behavior": "replay"}})
        assert (cfg.adversary_count, cfg.adversary_behavior) == (1, "replay")

    def test_nested_unknown_keys_rejected(self):
        base = {"groups": 2, "eta": 4, "radius": 10.0}
        with pytest.raises(ValueError, match="unknown placement keys"):
            RunConfig.from_dict({**base, "placement": {"radios": 3}})
        with pytest.raises(ValueError, match="unknown adversaries keys"):
            RunConfig.from_dict({**base, "adversaries": {"count": 1, "kind": "replay"}})
        with pytest.raises(ValueError, match="adversaries must be a count or an object"):
            RunConfig.from_dict({**base, "adversaries": "3"})
        # only an absent (or null) placement means none, not any falsy value
        for placement in (["uniform"], [], 0, ""):
            with pytest.raises(ValueError, match="placement must be a JSON object"):
                RunConfig.from_dict({**base, "placement": placement})

    def test_key_given_flat_and_nested_rejected(self):
        with pytest.raises(ValueError, match="radius given both"):
            RunConfig.from_dict({"groups": 2, "eta": 4, "radius": 10.0, "placement": {"radius": 20.0}})
        with pytest.raises(ValueError, match="adversary_behavior given both"):
            RunConfig.from_dict(
                {"groups": 2, "eta": 4, "radius": 10.0, "adversary_behavior": "replay",
                 "adversaries": {"behavior": "forge_join"}}
            )

    BASE = {"groups": 2, "eta": 4, "radius": 10.0}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("groups", "2"),
            ("groups", 2.0),
            ("eta", True),
            ("key_bits", 128.0),
            ("seed", "7"),
            ("max_rounds", None),
            ("adversary_count", True),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig.from_dict({**self.BASE, field: value})

    def test_adversaries_true_is_not_a_count(self):
        with pytest.raises(ValueError, match="adversary_count must be an integer"):
            RunConfig.from_dict({**self.BASE, "adversaries": True})
        with pytest.raises(ValueError, match="adversary_count must be an integer"):
            RunConfig.from_dict({**self.BASE, "adversaries": {"count": False}})

    @pytest.mark.parametrize(
        "field, value",
        [("width", "100"), ("height", None), ("radius", True), ("target_degree", [6]),
         ("sigma", "3"), ("reserve_fraction", None), ("radius", math.nan),
         ("target_degree", math.nan), ("width", math.inf), ("sigma", -math.inf),
         pytest.param("width", 10**400, id="width-int_past_float_range")],
    )
    def test_reals_must_be_numbers(self, field, value):
        raw = {**self.BASE, field: value}
        if field == "target_degree":
            del raw["radius"]
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            RunConfig.from_dict(raw)

    def test_ranges(self):
        for rounds in (0, -5):
            with pytest.raises(ValueError, match="max_rounds must be at least 1"):
                RunConfig.from_dict({**self.BASE, "max_rounds": rounds})
        with pytest.raises(ValueError, match="adversary_count must not be negative"):
            RunConfig.from_dict({**self.BASE, "adversaries": -1})
        for groups in (0, -3):
            with pytest.raises(ValueError, match="groups must be at least 1"):
                RunConfig.from_dict({**self.BASE, "groups": groups})
        with pytest.raises(ValueError, match="eta must not be negative"):
            RunConfig.from_dict({**self.BASE, "eta": -1})
        cfg = RunConfig.from_dict({**self.BASE, "max_rounds": 1, "adversary_count": 0, "width": 50, "sigma": 2})
        assert (cfg.max_rounds, cfg.adversary_count, cfg.width, cfg.sigma) == (1, 0, 50, 2)
        cfg = RunConfig.from_dict({**self.BASE, "groups": 1, "eta": 0})
        assert (cfg.groups, cfg.eta) == (1, 0)

    @pytest.mark.parametrize("count", [0, 2])
    @pytest.mark.parametrize("behavior", ["bogus", ["replay"], None])
    def test_unknown_adversary_behavior_rejected(self, count, behavior):
        with pytest.raises(ValueError, match="adversary_behavior must be one of"):
            RunConfig.from_dict({**self.BASE, "adversaries": {"count": count, "behavior": behavior}})


class TestRunControl:
    def material(self):
        return provision([1])

    def spots(self):
        return {0: (10.0, 0.0), 1: (20.0, 0.0)}

    def test_round_budget_respected_and_resumable(self):
        w = line_world(self.material(), self.spots())
        run(w, max_rounds=1)
        assert w.round == 1
        assert not w.formation_complete
        run(w, max_rounds=10)
        assert w.formation_complete
        assert w.states[1].phase is Phase.JOINED

    def test_step_is_manual_run(self):
        a = line_world(self.material(), self.spots())
        b = line_world(self.material(), self.spots())
        run(a, max_rounds=3)
        for _ in range(3):
            step(b)
        assert a.round == b.round
        assert assemble_outcome(a) == assemble_outcome(b)


def radio_neighbors(world):
    """Every radio in range of each radio, in id order, read off the world's
    radio graph."""
    ids = sorted(world.positions)
    g = world.radio_index().graph
    return {v: sorted(ids[j] for j in g.adj[i]) for i, v in enumerate(ids)}


class TestRadioIndex:
    @staticmethod
    def pair_loop(world):
        """Reference adjacency: every pair of radios, squared distance against r^2."""
        ids = sorted(world.positions)
        r2 = world.radius * world.radius
        table = {v: [] for v in ids}
        for a, va in enumerate(ids):
            xa, ya = world.positions[va]
            for vb in ids[a + 1 :]:
                xb, yb = world.positions[vb]
                if (xa - xb) * (xa - xb) + (ya - yb) * (ya - yb) <= r2:
                    table[va].append(vb)
                    table[vb].append(va)
        return table

    def check(self, world):
        table = self.pair_loop(world)
        assert radio_neighbors(world) == table
        split = {
            v: (frozenset(u for u in near if u >= BS_ID), tuple(sorted(u for u in near if u < BS_ID)))
            for v, near in table.items()
        }
        index = world.radio_index()
        assert index.neighbors == split
        assert index.ids == sorted(world.positions) and index.graph.n == len(world.positions)

    def test_neighbors_match_pair_loop_through_churn(self):
        m = provision([9] * 6, reserve_fraction=0.3, seed=2)
        w = deploy(m, PlacementModel("group_clustered", 90.0, 90.0, 18.0), seed=4)
        inject_adversary(w, 3, "forge_join")
        self.check(w)
        assert any(advs for _, advs in w.radio_index().neighbors.values())
        run(w)
        leave(w, 1)
        late_join(w, min(m.reserve), position=(45.0, 45.0))
        self.check(w)
        run(w)
        assert w.states[1].phase is Phase.LEFT
        late_join(w, 1, position=(10.0, 80.0))  # a departed sensor back at a new spot
        assert w.positions[1] == (10.0, 80.0) and w.states[1].phase is Phase.IDLE
        self.check(w)

    # Spots on a 2-unit grid with radius 10 give coincident radios and pairs
    # exactly 10 apart (6-8 and 10-0 offsets); free spots give the rest.
    SPOT = strategies.one_of(
        strategies.tuples(strategies.integers(0, 20), strategies.integers(0, 20)).map(
            lambda p: (2.0 * p[0], 2.0 * p[1])
        ),
        strategies.tuples(*[strategies.floats(-5.0, 45.0, allow_nan=False)] * 2),
    )
    OPS = strategies.lists(
        strategies.tuples(
            strategies.sampled_from(["reserve", "rejoin", "adversary", "move"]),
            strategies.integers(0, 10**6),
            SPOT,
        ),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=60, deadline=None)
    @given(start=strategies.lists(SPOT, min_size=12, max_size=12), ops=OPS)
    def test_spliced_index_equals_a_rebuild(self, start, ops):
        m = provision([3, 3, 4], reserve_fraction=0.4)
        deployed = m.deployed_nodes()
        w = make_world(m, {BS_ID: (20.0, 20.0), **dict(zip(deployed, start))}, radius=10.0)
        inject_adversary(w, 1, "replay", positions=[start[-1]])
        w.radio_index()  # built before any change, so every change is spliced
        for op, pick, spot in ops:
            if op == "reserve":
                spare = sorted(set(m.reserve) - set(w.states))
                if not spare:
                    continue
                late_join(w, spare[pick % len(spare)], position=spot)
            elif op == "rejoin":  # leave, step once to depart, come back elsewhere
                active = sorted(v for v, st in w.states.items() if st.rank is Rank.OS and st.phase is not Phase.LEFT)
                if not active:
                    continue
                v = active[pick % len(active)]
                leave(w, v)
                step(w)
                assert w.states[v].phase is Phase.LEFT
                late_join(w, v, position=spot)
            elif op == "adversary":
                inject_adversary(w, 1, "forge_join", positions=[spot])
            else:  # any radio, the base station and adversaries included
                radios = sorted(w.positions)
                w._place(radios[pick % len(radios)], spot)
            spliced, fresh = w.radio_index(), rebuilt(w).radio_index()
            assert spliced.ids == fresh.ids == sorted(w.positions)
            assert spliced.graph == fresh.graph
            assert list(spliced.graph.edges()) == list(fresh.graph.edges())
            assert spliced.neighbors == fresh.neighbors
        self.check(w)

    def test_splice_refuses_a_position_off_the_plane(self):
        m = provision([2], reserve_fraction=0.5)
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0)})
        before = w.radio_index()
        with pytest.raises(ValueError, match="finite"):
            late_join(w, 2, position=(math.inf, 0.0))
        with pytest.raises(ValueError, match="finite"):
            inject_adversary(w, 1, "replay", positions=[(0.0, math.nan)])
        assert 2 not in w.positions and 2 not in w.states and not w.adversaries
        assert w.radio_index() == before


def fan_out(world):
    """Reference delivery: every in-flight copy, in transmission order, to every
    radio in range of its transmitter except departed sensors. Duplicate and
    already-seen flood copies are left for the steps to drop."""
    inboxes = {}
    neighbors = radio_neighbors(world)
    for env in world.inflight:
        for rcv in neighbors[env.transmitter]:
            st = world.states.get(rcv)
            if st is not None and st.phase is Phase.LEFT:
                continue
            inboxes.setdefault(rcv, []).append(env)
    return inboxes


def fan_out_deliver(world):
    """The reference fan-out in ``_deliver``'s shape, with no relays for the
    radio layer to send: the reference step relays for itself."""
    inboxes = fan_out(world)
    world.sends, world.relayed = [], {}
    return inboxes


def relaying(step_fn, seen, sends_relays=True):
    """Reference step: ``step_fn`` as it ran when each sensor relayed floods
    in its own step. ``seen`` maps each node to the keys of the floods it has
    relayed or originated, whichever step it ran. The step sees only the
    first copy of each flood not seen, its relays go out ahead of its own
    sends (the base station's are dropped), and the floods it originates
    count as seen."""

    def stepped(state, inbox, *args):
        mine = seen.setdefault(state.id, set())
        first, relays = [], []
        for env in sorted(inbox, key=_inbox_key):
            if env.kind in FLOOD_KINDS:
                if flood_key(env) in mine:
                    continue
                mine.add(flood_key(env))
                relays.append(env._replace(transmitter=state.id))
            first.append(env)
        state, out = step_fn(state, first, *args)
        mine.update(flood_key(env) for env in out if env.kind in FLOOD_KINDS)
        return state, (relays if sends_relays else []) + out

    return stepped


def payload(env):
    """An envelope without its transmitter: what a relay of it carries."""
    return env.sender, env.kind, env.ciphertext, env.seq


class DeliveryCheck:
    """Stands in for sim._deliver: delivers for real, and asserts each round
    that adversaries overhear exactly the reference fan-out's copies, that
    every protocol radio's inbox holds only copies the fan-out gave it and of
    kinds its step reads, and that the relay records come in flood-key
    order, each naming in ascending order sensors on the field that the
    fan-out gave that flood."""

    deliver = staticmethod(sim_module._deliver)

    def __init__(self):
        self.rounds = self.skipped_copies = self.replayed_floods_kept = 0

    def __call__(self, world):
        expected = fan_out(world)
        replayed = [env for env in world.sends if env.kind in FLOOD_KINDS and env.transmitter < BS_ID]
        before = {flood_key(env): set(world.reached[flood_key(env)]) for env in replayed}
        inboxes = self.deliver(world)
        self.rounds += 1
        for rcv in set(expected) | set(inboxes):
            want, have = expected.get(rcv, []), inboxes.get(rcv, [])
            if rcv < BS_ID:
                assert have == want, (world.round, rcv)
                continue
            reads = HANDLERS[BS_ID if rcv == BS_ID else world.states[rcv].rank]
            assert all(env in want and env.kind in reads for env in have), (world.round, rcv)
            self.skipped_copies += len(want) - len(have)
        assert list(world.relayed) == sorted(world.relayed), world.round
        for key, (copy, ids) in world.relayed.items():
            assert ids and ids == sorted(set(ids)), (world.round, key)
            assert flood_key(copy) == key and copy.kind in FLOOD_KINDS
            for relayer in ids:
                assert world.states[relayer].phase is not Phase.LEFT
                assert payload(copy) in map(payload, expected[relayer]), (world.round, key, relayer)
        # A replayed copy sorts ahead of every legitimate one, so a radio in
        # its range that the flood reached this round was reached by a replay.
        neighbors = world.radio_index().neighbors
        for env in replayed:
            key = flood_key(env)
            if (world.reached[key] - before[key]) & neighbors[env.transmitter][0]:
                self.replayed_floods_kept += 1
        return inboxes


def twin_runs(drive):
    """Run ``drive`` with the real delivery under DeliveryCheck, then again with
    the reference fan-out, the reference steps that relay for themselves, and
    every ordinary sensor stepped every round; both runs must make the same
    transmissions and leave the same events and outcome."""
    check = DeliveryCheck()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim_module, "_deliver", check)
        fast_sent = record_transmissions(m)
        fast = drive()
    with pytest.MonkeyPatch.context() as m:
        slow_sent = record_transmissions(m)
        m.setattr(sim_module, "_deliver", fan_out_deliver)
        seen = {}  # shared: a promoted sensor moves from os_step to gd_step
        m.setattr(sim_module, "os_step", relaying(sim_module.os_step, seen))
        m.setattr(sim_module, "gd_step", relaying(sim_module.gd_step, seen))
        m.setattr(sim_module, "bs_step", relaying(sim_module.bs_step, seen, sends_relays=False))
        m.setattr(sim_module, "os_idle", lambda state, round_no: False)
        m.setattr(sim_module, "_may_work", lambda state: state.rank is Rank.OS)
        slow = drive()
    assert fast_sent == slow_sent
    assert fast.events == slow.events
    assert assemble_outcome(fast) == assemble_outcome(slow)
    return check


DELIVERY_FIELD = dict(
    groups=8, eta=9, mode="group_clustered", width=110.0, height=110.0, target_degree=10.0, seed=7
)


def churn_run(seed):
    """Form a field with replaying adversaries, then leaves and reserve joins.
    Step until a flood that went out in range of the first leaver while it
    was away is in the air in its range again, bring that sensor back then,
    and run to quiescence."""
    material = provision([9] * 6, reserve_fraction=0.2, seed=seed)
    world = deploy(material, PlacementModel("group_clustered", 90.0, 90.0, 22.0), seed=seed + 1)
    inject_adversary(world, 2, "replay")
    run(world)
    joined = sorted(v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
    for v in joined[:3]:
        leave(world, v)
    for v in sorted(material.reserve)[:3]:
        late_join(world, v)
    comeback = joined[0]
    sim_module.step(world)
    assert world.states[comeback].phase is Phase.LEFT
    missed = set()  # floods sent in its range since it left
    while True:
        listeners, adversaries = world.radio_index().neighbors[comeback]
        near = {
            flood_key(env) for env in world.inflight
            if env.kind in FLOOD_KINDS and (env.transmitter in listeners or env.transmitter in adversaries)
        }
        if near & missed:
            break
        missed |= near
        assert world.round < 200, "no flood passed the departed sensor twice"
        sim_module.step(world)
    late_join(world, comeback)
    run(world)
    return world


class TestDelivery:
    @pytest.mark.parametrize("behavior", [None, *ADVERSARY_BEHAVIORS])
    def test_same_processed_inboxes_as_fan_out(self, behavior):
        extra = {} if behavior is None else {"adversary_count": 3, "adversary_behavior": behavior}
        config = RunConfig(**DELIVERY_FIELD, **extra)
        check = twin_runs(lambda: simulate(config)[0])
        assert check.rounds > 10 and check.skipped_copies > 1000
        if behavior == "replay":
            assert check.replayed_floods_kept > 0

    def test_churn_same_as_fan_out(self):
        check = twin_runs(lambda: churn_run(8))
        assert check.skipped_copies > 0

    def test_rejoined_sensor_relays_a_flood_it_missed(self, monkeypatch):
        # The first leaver comes back while a flood that passed it is still in
        # the air around it, and relays that flood: a departed sensor is not
        # recorded as reached by the floods it misses.
        sent = record_transmissions(monkeypatch)
        world = churn_run(8)
        comeback = next(e["node"] for e in world.events if e["event"] == "left")
        last = {e["event"]: e["round"] for e in world.events if e["node"] == comeback}
        gone, back = last["left"], last["join_request"]
        listeners, adversaries = world.radio_index().neighbors[comeback]
        # Copies sent from round ``gone`` to ``back - 2`` arrived while it was away.
        missed = {
            flood_key(env) for r, env in sent
            if gone <= r <= back - 2 and env.kind in FLOOD_KINDS
            and (env.transmitter in listeners or env.transmitter in adversaries)
        }
        relayed = {flood_key(env) for r, env in sent if r >= back and env.transmitter == comeback}
        assert missed & relayed

    @settings(max_examples=6, deadline=None)
    @given(seed=strategies.integers(0, 10**6), behavior=strategies.sampled_from(ADVERSARY_BEHAVIORS))
    def test_random_fields_same_as_fan_out(self, seed, behavior):
        config = RunConfig(
            groups=5, eta=7, mode="group_clustered", width=80.0, height=80.0, target_degree=8.0,
            seed=seed, adversary_count=2, adversary_behavior=behavior,
        )
        twin_runs(lambda: simulate(config)[0])


def recorded_run(monkeypatch, name):
    """A golden ``wcds sim`` config's world (one per adversary behaviour
    among them), ``churn_world()`` or ``churn_run(8)``, with every
    transmission recorded."""
    sent = record_transmissions(monkeypatch)
    if name == "churn":
        world = churn_world()
    elif name == "churn_run":
        world = churn_run(8)
    else:
        world = simulate(RunConfig.from_dict(GOLDEN_CASES[name]))[0]
    return world, sent


RECORDED_RUNS = [*GOLDEN_CASES, "churn", "churn_run"]


class TestRecorder:
    """The transmissions recorded through ``World.inflight`` are what the
    world counts, in the transmission order the module docstring gives."""

    @pytest.mark.parametrize("name", RECORDED_RUNS)
    def test_matches_counters(self, monkeypatch, name):
        world, sent = recorded_run(monkeypatch, name)
        kinds = Counter(
            ("ADV_" if env.transmitter < BS_ID else "") + env.kind.name for _, env in sent
        )
        assert sent and assemble_outcome(world).message_count == tuple(sorted(kinds.items()))

    @pytest.mark.parametrize("name", RECORDED_RUNS)
    def test_transmission_order(self, monkeypatch, name):
        # Per round: the base station, then each sensor in id order with its
        # relays (sender not itself) in flood-key order ahead of its own
        # sends, then the adversaries -2, -3, ...
        world, sent = recorded_run(monkeypatch, name)
        relays = 0
        for _, air in groupby(sent, key=itemgetter(0)):
            order, mine = [], {}
            for _, env in air:
                t = env.transmitter
                own = env.sender == t
                order.append((0, 0, 0) if t == BS_ID else (1, t, own) if t >= 0 else (2, -t, 0))
                if t >= 0 and not own:
                    assert env.kind in FLOOD_KINDS
                    mine.setdefault(t, []).append(flood_key(env))
            assert order == sorted(order)
            for keys in mine.values():
                assert keys == sorted(set(keys))
                relays += len(keys)
        assert relays > 0


class TestOsRelay:
    def test_command_for_another_sensor_is_relayed_once(self, monkeypatch):
        # BS - 1 - 2 in a line, their dominator out of range: both orphan and
        # are promoted. Sensor 1 hears 2's command from the base station and
        # again from 2, and relays it once.
        m = provision([2])
        w = line_world(m, {0: (60.0, 60.0), 1: (10.0, 0.0), 2: (20.0, 0.0)})
        sent = record_transmissions(monkeypatch)
        run(w)
        assert assemble_outcome(w).orphan_log == ((1, "promoted"), (2, "promoted"))
        own = m.individual_keys[2].id
        transmitters = [
            env.transmitter for _, env in sent
            if env.kind is MessageKind.PROMOTE_CMD and env.ciphertext.key_id == own
        ]
        assert transmitters == [BS_ID, 1, 2]


class TestGdRelay:
    def test_dominator_relays_a_passing_orphan_error_once_ahead_of_its_report(self, monkeypatch):
        # BS - 2 - 1 in a line, sensor 1's own dominator 0 out of range.
        # Dominator 2 hears 1's orphan error at one hop and, in the same turn,
        # relays it once and then reports it.
        m = provision([1, 1])
        w = line_world(m, {0: (60.0, 60.0), 1: (20.0, 0.0), 2: (10.0, 0.0), 3: (10.0, 8.0)})
        sent = record_transmissions(monkeypatch)
        run(w)
        assert assemble_outcome(w).orphan_log == ((1, "adopted"),)
        errors = (MessageKind.GD_ERR, MessageKind.ORP_ERR)
        mine = [(r, env.kind, env.sender) for r, env in sent if env.transmitter == 2 and env.kind in errors]
        r = mine[0][0]
        assert mine == [(r, MessageKind.GD_ERR, 1), (r, MessageKind.ORP_ERR, 2)]


class TestIdleSkip:
    """Sensors with an empty inbox and nothing due are not stepped."""

    @staticmethod
    def count_steps(m):
        calls = []
        for name in ("os_step", "gd_step"):
            real = getattr(sim_module, name)

            def counted(state, *args, _real=real):
                calls.append((state.id, args[1]))
                return _real(state, *args)

            m.setattr(sim_module, name, counted)
        return calls

    def test_awaiting_sensor_orphans_on_time(self):
        # Sensor 1 is out of everyone's range: its inbox stays empty.
        w = line_world(provision([1]), {0: (10.0, 0.0), 1: (60.0, 0.0)})
        with pytest.MonkeyPatch.context() as m:
            calls = self.count_steps(m)
            for _ in range(APPROVAL_TIMEOUT + 2):
                step(w)
        st = w.states[1]
        assert st.join_round == 0 and st.phase is Phase.ORPHAN
        mine = [(e["round"], e["event"]) for e in w.events if e["node"] == 1]
        assert mine == [(0, "join_request"), (APPROVAL_TIMEOUT, "orphaned")]
        assert [r for v, r in calls if v == 1] == [0, APPROVAL_TIMEOUT]

    def test_pending_leave_leaves_that_round(self):
        w = line_world(provision([1]), {0: (10.0, 0.0), 1: (20.0, 0.0)})
        run(w)
        for _ in range(3):
            step(w)  # quiet rounds: nothing in the air
        assert not w.inflight and w.states[1].phase is Phase.JOINED
        leave(w, 1)
        round_no = w.round
        with pytest.MonkeyPatch.context() as m:
            calls = self.count_steps(m)
            step(w)
        assert calls == [(1, round_no)]
        assert w.states[1].phase is Phase.LEFT
        assert w.events[-1] == {"round": round_no, "node": 1, "event": "left", "detail": {}}
        # The air holds exactly this round's transmissions.
        assert [env.kind.name for env in w.inflight if env.transmitter == 1][-1] == "LEAVE"

    def test_skipped_nodes_leave_no_trace(self):
        w = line_world(provision([1, 1]), {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (10.0, 10.0), 3: (20.0, 10.0)})
        run(w)
        events, counters = len(w.events), dict(w.counters)
        with pytest.MonkeyPatch.context() as m:
            calls = self.count_steps(m)
            sent = record_transmissions(m)
            for _ in range(4):
                sim_module.step(w)
        assert calls == []
        assert len(w.events) == events and sent == [] and w.counters == counters


def step_counts(m):
    """Count ``step`` calls made through the module, as ``run`` makes them."""
    calls = []
    real = sim_module.step

    def counted(world):
        calls.append(world.round)
        real(world)

    m.setattr(sim_module, "step", counted)
    return calls


def quiet_twin(drive):
    """Run ``drive`` as it is, then again with the quiescence test patched to
    False, so that every round of the budget is stepped. Both runs must end in
    the same world; returns the step counts of the real run and the twin."""
    real_pending = sim_module._pending
    runs = []
    for never_quiet in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if never_quiet:
                m.setattr(
                    sim_module,
                    "_pending",
                    lambda w: sim_module._BUSY if real_pending(w) == sim_module._QUIET else real_pending(w),
                )
            calls = step_counts(m)
            sent = record_transmissions(m)
            world = drive()
        runs.append((world, len(calls), sent))
    (fast, fast_steps, fast_sent), (slow, slow_steps, slow_sent) = runs
    assert fast.round == slow.round
    assert fast.events == slow.events
    assert fast_sent == slow_sent
    assert fast.counters == slow.counters
    assert fast.formation_complete == slow.formation_complete
    assert {v: st.post_formation for v, st in fast.states.items()} == {
        v: st.post_formation for v, st in slow.states.items()
    }
    assert assemble_outcome(fast) == assemble_outcome(slow)
    assert verify_outcome(fast) == verify_outcome(slow)
    return fast_steps, slow_steps


class TestQuietTail:
    """A field whose only open work is orphans nothing can reach is not
    stepped; the rounds it would have idled through are counted all the same."""

    @pytest.mark.parametrize("n, seed", [(100, 0), (160, 3)])
    def test_stalled_degree6_field(self, n, seed):
        radius = radius_for_expected_degree(n, 100.0, 100.0, 6.0)
        fast, slow = quiet_twin(lambda: form_deployment(n, 9, 100.0, 100.0, radius, seed=seed))
        assert fast < slow == 64

    @pytest.mark.parametrize("name", ["clean", "nested_placement"])
    def test_golden_configs(self, name):
        config = RunConfig.from_dict(GOLDEN_CASES[name])
        fast, slow = quiet_twin(lambda: simulate(config)[0])
        if name == "clean":  # settles before its budget: nothing to skip
            assert fast == slow
        else:
            assert fast < slow == config.max_rounds

    @pytest.mark.parametrize("behavior", ADVERSARY_BEHAVIORS)
    def test_adversaries_are_never_skipped(self, behavior):
        config = RunConfig.from_dict({**GOLDEN_CASES["nested_placement"], "adversaries": {"count": 1, "behavior": behavior}})
        fast, slow = quiet_twin(lambda: simulate(config)[0])
        assert fast == slow == config.max_rounds

    def test_awaiting_sensor_times_out(self):
        # Sensor 1 is out of everyone's range: nothing is in the air when its
        # approval wait runs out, and that round must still be stepped.
        def drive():
            w = line_world(provision([1]), {0: (10.0, 0.0), 1: (60.0, 0.0)})
            run(w, max_rounds=10)
            assert w.round == 10 and w.states[1].phase is Phase.ORPHAN
            return w

        fast, slow = quiet_twin(drive)
        assert fast < slow

    def test_quiet_run_resumes_where_it_would_have(self):
        # An unreachable sensor orphans; after the budget, a leave wakes the
        # field, and the skipped run goes on exactly like the stepped one.
        def drive():
            spots = {0: (10.0, 0.0), 1: (60.0, 0.0), 2: (10.0, 10.0), 3: (20.0, 10.0)}
            w = line_world(provision([1, 1]), spots)
            run(w, max_rounds=20)
            assert w.round == 20 and w.states[1].phase is Phase.ORPHAN
            leave(w, 3)
            run(w, max_rounds=5)
            assert w.states[3].phase is Phase.LEFT
            return w

        fast, slow = quiet_twin(drive)
        assert fast < slow


class TestChurn:
    def reserve_world(self):
        m = provision([4], reserve_fraction=0.5)
        return line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (10.0, 10.0)})

    def test_reserve_late_join_reaches_home_group(self):
        m = provision([2], reserve_fraction=0.5)
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0)})
        run(w)
        assert m.reserve == {2}
        late_join(w, 2, position=(10.0, 10.0))
        run(w)
        st = w.states[2]
        assert st.phase is Phase.JOINED and st.dominator == 0
        # admission after formation rotates the group key
        assert w.counters.get("REKEY", 0) == 2
        assert st.ring.group.id == w.material.group_keys[0].id

    def test_isolated_late_joins_promote_one_for_one(self):
        w = self.reserve_world()
        run(w)
        assert assemble_outcome(w).dominator_set == (0,)
        late_join(w, 3, position=(0.0, 10.0))
        run(w)
        assert assemble_outcome(w).dominator_set == (0, 3)
        late_join(w, 4, position=(0.0, 10.0))
        run(w)
        outcome = assemble_outcome(w)
        assert outcome.dominator_set == (0, 3, 4)
        assert outcome.orphan_log == ((3, "promoted"), (4, "promoted"))
        assert outcome.coverage_failures == ()

    def test_late_join_guards(self):
        w = self.reserve_world()
        run(w)
        with pytest.raises(ValueError):
            late_join(w, 1)  # deployed and active
        with pytest.raises(ValueError):
            late_join(w, 99)

    def test_leave_removes_member_and_rekeys(self):
        m = provision([2])
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (10.0, 10.0)})
        run(w)
        assert assemble_outcome(w).membership == ((1, 0), (2, 0))
        leave(w, 1)
        run(w)
        assert w.states[1].phase is Phase.LEFT
        assert w.states[0].subordinates == {2}
        assert assemble_outcome(w).membership == ((2, 0),)
        # the survivor followed the rotation, the departed ring did not
        assert w.states[2].ring.group.id == m.group_keys[0].id
        assert w.states[1].ring.group.id != m.group_keys[0].id

    def test_departed_can_rejoin(self):
        m = provision([2])
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (10.0, 10.0)})
        run(w)
        leave(w, 1)
        run(w)
        late_join(w, 1)
        run(w)
        assert w.states[1].phase is Phase.JOINED
        assert w.states[0].subordinates == {1, 2}

    def test_rejoin_elsewhere_forgets_the_old_neighbour_dominators(self):
        # Member 1 forms between its dominator 0 and foreign dominator 2, then
        # comes back where only group 4 is in range, and orphans there.
        m = provision([1, 1, 1])
        spots = {0: (10.0, 0.0), 1: (15.0, 0.0), 2: (20.0, 0.0), 3: (30.0, 0.0), 4: (5.0, 40.0), 5: (5.0, 50.0)}
        w = line_world(m, spots)
        run(w)
        assert w.states[1].neighbor_dominators == {2}
        leave(w, 1)
        run(w)
        late_join(w, 1, position=(5.0, 45.0))
        run(w)
        orphaned = [e for e in w.events if e["node"] == 1 and e["event"] == "orphaned"]
        assert len(orphaned) == 1 and 2 not in orphaned[0]["detail"]["observed"]

    @pytest.mark.parametrize("seed", range(20))
    def test_join_and_leave_in_one_group_in_one_round(self, seed):
        # The dominator approves the joiner, then rekeys for the leave in the
        # same step: the approval must open under the key the joiner ends with.
        world, joiner = race_run(seed)
        st = world.states[joiner]
        assert st.phase is Phase.JOINED and st.rank is Rank.OS
        assert not any(e["node"] == joiner and e["event"] == "orphaned" for e in world.events)

    def test_leave_guards(self):
        m = provision([2])
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (10.0, 10.0)})
        run(w)
        with pytest.raises(ValueError):
            leave(w, 0)  # dominators do not resign
        with pytest.raises(ValueError):
            leave(w, 99)
        leave(w, 1)
        run(w)
        with pytest.raises(ValueError):
            leave(w, 1)


class TestStateIndices:
    """The sensors that may have work and the part each sensor plays are kept
    in place; after every change they equal indices rebuilt from the states."""

    @staticmethod
    def check(world):
        twin = rebuilt(world)
        assert world._busy_sensors() == twin._busy_sensors(), world.round
        assert world._role_index() == twin._role_index(), world.round

    @staticmethod
    def lonely_spot(world):
        """A spot in range of the base station and of no GD-rank sensor."""
        (bx, by), r = world.positions[BS_ID], world.radius
        heads = [world.positions[v] for v, st in world.states.items() if st.rank is Rank.GD]
        for dx in range(-int(r), int(r) + 1):
            for dy in range(-int(r), int(r) + 1):
                x, y = bx + dx, by + dy
                if math.hypot(dx, dy) <= r and all(math.hypot(x - hx, y - hy) > r for hx, hy in heads):
                    return (x, y)
        raise AssertionError("every spot near the base station has a dominator in range")

    def test_indices_match_the_states_through_churn(self, monkeypatch):
        real = sim_module.step
        rounds = []

        def checked(world):
            real(world)
            self.check(world)
            rounds.append(world.round)

        monkeypatch.setattr(sim_module, "step", checked)
        m = provision([9] * 6, reserve_fraction=0.3, seed=2)
        w = deploy(m, PlacementModel("group_clustered", 90.0, 90.0, 18.0), seed=4)
        inject_adversary(w, 3, "forge_join")
        run(w)
        self.check(w)
        spare = sorted(m.reserve)
        for epoch in range(4):
            joined = sorted(v for v, st in w.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
            for v in joined[epoch :: 9]:
                leave(w, v)
                self.check(w)
            # One reserve where its group is, one in the base station's range
            # but out of every adopting dominator's, which orphans and is promoted.
            late_join(w, spare.pop())
            late_join(w, spare.pop(), position=self.lonely_spot(w))
            self.check(w)
            run(w)
            departed = sorted(v for v, st in w.states.items() if st.phase is Phase.LEFT)
            late_join(w, departed[0], position=w.positions[departed[-1]])
            self.check(w)
            run(w)
        promoted = [v for v, st in w.states.items() if st.rank is Rank.GD_OS]
        assert len(promoted) >= 3 and set(promoted).isdisjoint(w._role_index().victims)
        assert len(rounds) > 40 and not w._busy_sensors()


class TestAdversaries:
    def joined_line(self):
        m = provision([1])
        return line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0)})

    def test_inject_ids_and_validation(self):
        w = self.joined_line()
        ids = inject_adversary(w, 2, "forge_join")
        assert ids == [-2, -3]
        assert inject_adversary(w, 1, "replay") == [-4]
        with pytest.raises(ValueError):
            inject_adversary(w, 1, "jam")
        with pytest.raises(ValueError):
            inject_adversary(w, 2, "replay", positions=[(0.0, 0.0)])

    def test_adversaries_never_enter_the_roster(self):
        w = self.joined_line()
        inject_adversary(w, 1, "forge_join", positions=[(20.0, 5.0)])
        run(w)
        assert -2 not in w.states
        outcome = assemble_outcome(w)
        assert outcome.dominator_set == (0,)
        assert outcome.membership == ((1, 0),)
        assert outcome.mediators == ()

    def test_forged_joins_rejected(self):
        w = self.joined_line()
        inject_adversary(w, 1, "forge_join", positions=[(20.0, 5.0)])
        run(w)
        assert w.states[0].subordinates == {1}
        assert w.counters["ADV_JOIN_REQ"] > 0
        assert w.states[1].dominator == 0

    def test_forged_approvals_next_to_the_sensor_rejected(self):
        w = self.joined_line()
        inject_adversary(w, 1, "forge_approve", positions=[(21.0, 0.0)])
        run(w)
        st = w.states[1]
        assert st.phase is Phase.JOINED
        assert st.dominator == 0
        assert st.dominator != -2

    def test_replay_changes_nothing_but_traffic(self):
        clean = self.joined_line()
        run(clean)
        noisy = self.joined_line()
        inject_adversary(noisy, 1, "replay", positions=[(15.0, 0.0)])
        run(noisy)
        a, b = assemble_outcome(clean), assemble_outcome(noisy)
        counts = dict(b.message_count)
        assert counts.get("ADV_JOIN_REQ", 0) + counts.get("ADV_JOIN_APRV", 0) > 0
        for field in ("dominator_set", "membership", "mediators", "orphan_log", "coverage_failures"):
            assert getattr(a, field) == getattr(b, field)
        assert verify_outcome(noisy).ok

    def test_chatter_does_not_stall_completion(self):
        w = self.joined_line()
        inject_adversary(w, 1, "forge_join", positions=[(20.0, 5.0)])
        run(w, max_rounds=50)
        assert w.formation_complete
        assert w.round < 50


class TestVerify:
    def test_graph_connected_is_the_on_field_graphs(self):
        # verify_outcome reads the graph's connectivity off the weak
        # connectivity of a dominating set; on random fields at degree 5,
        # split ones included and after two leaves, with the real dominator
        # set and with one dominator dropped, it must agree with a walk of
        # the on-field graph built afresh.
        seen = set()
        for seed in range(12):
            for mode in PLACEMENT_MODES:
                world = simulate(RunConfig(
                    groups=4, eta=6, mode=mode, width=80.0, height=80.0, target_degree=5.0, seed=seed,
                ))[0]
                joined = sorted(v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
                for v in joined[:2]:
                    leave(world, v)
                run(world)
                on_field = sorted(v for v, st in world.states.items() if st.phase is not Phase.LEFT)
                connected = is_connected(unit_disk_graph([world.positions[v] for v in on_field], world.radius))
                outcome = assemble_outcome(world)
                for chosen in (outcome, dataclasses.replace(outcome, dominator_set=outcome.dominator_set[1:])):
                    report = verify_outcome(world, chosen)
                    assert report.graph_connected == connected, (seed, mode)
                    seen.add((report.dominating, connected))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @staticmethod
    def by_predicates(world, outcome):
        """The report built with the graph predicates on the on-field graph,
        built afresh."""
        on_field = sorted(v for v, st in world.states.items() if st.phase is not Phase.LEFT)
        g = unit_disk_graph([world.positions[v] for v in on_field], world.radius)
        index = {v: i for i, v in enumerate(on_field)}
        chosen = {index[d] for d in outcome.dominator_set if d in index}
        return VerifyReport(
            node_count=len(on_field),
            dominator_count=len(chosen),
            dominating=is_dominating(g, chosen),
            weakly_connected=is_wcds(g, chosen),
            graph_connected=is_connected(g),
            fully_resolved=not outcome.coverage_failures,
        )

    @settings(max_examples=80, deadline=None)
    @given(
        groups=strategies.lists(strategies.integers(0, 4), min_size=1, max_size=5),
        data=strategies.data(),
    )
    def test_report_equals_the_graph_predicates(self, groups, data):
        # Random layouts, split ones included, a random subset of departed
        # sensors (all of them: no sensor on the field) and a random dominator
        # set, empty and off-field ids included.
        m = provision(groups)
        nodes = m.all_nodes()
        spot = strategies.tuples(*[strategies.floats(0.0, 60.0, allow_nan=False)] * 2)
        spots = data.draw(strategies.lists(spot, min_size=len(nodes), max_size=len(nodes)))
        w = make_world(m, {BS_ID: (30.0, 30.0), **dict(zip(nodes, spots))}, radius=15.0)
        for v in data.draw(strategies.sets(strategies.sampled_from(nodes))):
            w.states[v].phase = Phase.LEFT
        dominators = data.draw(strategies.sets(strategies.integers(-3, len(nodes) + 2)))
        outcome = dataclasses.replace(assemble_outcome(w), dominator_set=tuple(sorted(dominators)))
        assert verify_outcome(w, outcome) == self.by_predicates(w, outcome)

    @pytest.mark.parametrize("seed", range(6))
    def test_report_equals_the_graph_predicates_on_formed_fields(self, seed):
        world = simulate(RunConfig(
            groups=4, eta=6, mode="uniform", width=80.0, height=80.0, target_degree=5.0,
            reserve_fraction=0.3, seed=seed,
        ))[0]
        for v in sorted(world.material.reserve)[:2]:
            late_join(world, v)
        run(world)
        outcome = assemble_outcome(world)
        for dominators in (outcome.dominator_set, outcome.dominator_set[1:], ()):
            chosen = dataclasses.replace(outcome, dominator_set=dominators)
            assert verify_outcome(world, chosen) == self.by_predicates(world, chosen)

    def test_edge_fields(self):
        lone = line_world(provision([0]), {0: (5.0, 0.0)})
        empty = make_world(provision([0]), {BS_ID: (0.0, 0.0)}, radius=12.0)
        for world in (lone, empty):
            for dominators in ((), (0,)):
                outcome = dataclasses.replace(assemble_outcome(world), dominator_set=dominators)
                assert verify_outcome(world, outcome) == self.by_predicates(world, outcome)
        assert verify_outcome(empty).node_count == 0 and verify_outcome(empty).ok
        lone.states[0].phase = Phase.LEFT
        assert verify_outcome(lone) == VerifyReport(0, 0, True, True, True, True)


class TestEndToEnd:
    def test_form_deployment_settles_clean(self):
        w = form_deployment(30, 9, 100.0, 100.0, radius=45.0, seed=0)
        report = verify_outcome(w)
        assert report.ok
        assert report.graph_connected
        outcome = assemble_outcome(w)
        assert outcome.coverage_failures == ()
        assert len(outcome.dominator_set) >= 3

    def test_form_deployment_deterministic(self):
        a = form_deployment(20, 4, 100.0, 100.0, radius=45.0, seed=5)
        b = form_deployment(20, 4, 100.0, 100.0, radius=45.0, seed=5)
        assert assemble_outcome(a) == assemble_outcome(b)
        assert a.events == b.events

    def test_simulate_round_trip(self):
        cfg = RunConfig(groups=3, eta=4, radius=40.0, mode="group_clustered", seed=1)
        world, outcome, report = simulate(cfg)
        assert report.dominating and report.fully_resolved
        provisioned = set(world.material.all_nodes())
        assert set(dict(outcome.membership)) <= provisioned
        assert set(outcome.dominator_set) <= provisioned
        again = simulate(cfg)[1]
        assert outcome == again

    def test_simulate_with_adversaries(self):
        cfg = RunConfig(
            groups=3,
            eta=4,
            radius=40.0,
            mode="group_clustered",
            seed=1,
            adversary_count=2,
            adversary_behavior="forge_join",
        )
        world, outcome, report = simulate(cfg)
        provisioned = set(world.material.all_nodes())
        assert set(outcome.dominator_set) <= provisioned
        assert all(m >= 0 for m in dict(outcome.membership))
