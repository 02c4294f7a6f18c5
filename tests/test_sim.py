import copy
import dataclasses
import math
import random
from collections import Counter
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies

import wcds.radio as radio
import wcds.sim as sim_module
from conftest import (
    connected_within,
    cover,
    enum_reads,
    make_world,
    outcome_by_loop,
    radios,
    record_transmissions,
)
from test_golden import SIM_CASES as GOLDEN_CASES, churn_world, race_run
from wcds.graph import radius_for_expected_degree, unit_disk_graph
from wcds.keys import Ciphertext, Rank, encrypt, provision
from wcds.protocol import (
    APPROVAL_TIMEOUT,
    BS_ID,
    DELIVERY,
    Envelope,
    Phase,
    _hop1,
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
from wcds.wire import FLOOD_KINDS, MessageKind, pack_id_key, pack_ids


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


def fresh_index(world):
    """The radio index of ``world``'s positions, built afresh."""
    return radio.build_index(world.positions, world.radius)


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


def radio_neighbors(index):
    """Every radio in range of each radio, in id order, read off a radio
    index: its adversaries, then the protocol radios of its mask."""
    return {v: [*advs, *radios(near)] for v, (near, advs) in index.neighbors.items()}


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
        # Both lists are in id order, so this checks each radio's adversary
        # tuple, its mask and the order of the tuple.
        assert radio_neighbors(world.radio_index()) == self.pair_loop(world)

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
            assert w.radio_index().neighbors == fresh_index(w).neighbors
        self.check(w)

    @staticmethod
    def packed_field(name):
        """A field named for what its masks must get right: the highest
        protocol id at a byte's edges, ids with gaps (reserves not yet
        deployed), adversaries, or the base station alone."""
        rng = random.Random(name)
        if name.startswith("top "):
            m = provision([int(name[4:])])  # ids 0 .. top
            on = m.deployed_nodes()
        elif name == "id gaps":
            m = provision([9, 9, 9], reserve_fraction=0.4, seed=1)
            on = m.deployed_nodes()
            assert any(v < max(on) for v in set(m.all_nodes()) - set(on))  # gaps below the top
        else:
            m = provision([12])
            on = m.deployed_nodes() if name == "adversaries" else []
        spot = lambda: (rng.uniform(10.0, 30.0), rng.uniform(10.0, 30.0))
        w = make_world(m, {BS_ID: (20.0, 20.0), **{v: spot() for v in on}}, radius=10.0)
        if name == "adversaries":
            inject_adversary(w, 4, "replay", positions=[spot() for _ in range(4)])
        return w

    @pytest.mark.parametrize(
        "name", ["top 6", "top 7", "top 8", "top 63", "top 64", "id gaps", "adversaries", "base station alone"]
    )
    def test_packed_masks_equal_the_pair_loop_and_a_spliced_index(self, name):
        w = self.packed_field(name)
        self.check(w)
        top = max(w.positions)
        assert top == BS_ID or w.radio_index().neighbors[top][0]  # the top bit is in masks
        # The same field spliced in radio by radio onto the base station alone.
        spliced = rebuilt(w)
        spliced.positions = {BS_ID: w.positions[BS_ID]}
        spliced.radio_index()
        for v in random.Random(0).sample(sorted(w.positions), len(w.positions)):
            if v != BS_ID:
                spliced._place(v, w.positions[v])
        assert spliced.positions == w.positions
        assert spliced.radio_index().neighbors == w.radio_index().neighbors

    def test_splice_refuses_a_position_off_the_plane(self):
        m = provision([2], reserve_fraction=0.5)
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0)})
        # A copy of every entry: the index's own dict is edited in place, so
        # comparing with it would pass even after a half-done splice.
        before = dict(w.radio_index().neighbors)
        with pytest.raises(ValueError, match="finite"):
            late_join(w, 2, position=(math.inf, 0.0))
        with pytest.raises(ValueError, match="finite"):
            inject_adversary(w, 1, "replay", positions=[(0.0, math.nan)])
        assert 2 not in w.positions and 2 not in w.states and not w.adversaries
        assert w.radio_index().neighbors == before == fresh_index(w).neighbors

    @pytest.mark.parametrize(
        "spot",
        [(10.0, 10.0, 99.0), (10.0,), (), 10.0, "ab", ("10", 10.0), (10.0, None), (True, 0)],
        ids=["three", "one", "empty", "scalar", "string", "text coordinate", "none coordinate", "bool coordinate"],
    )
    def test_place_refuses_anything_but_two_finite_numbers(self, spot):
        m = provision([2, 1], reserve_fraction=0.5)
        w = line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 3: (30.0, 0.0)})
        w.radio_index()
        run(w)
        leave(w, 1)
        run(w)
        before = {v: tuple(entry) for v, entry in w.radio_index().neighbors.items()}
        positions = dict(w.positions)
        with pytest.raises(ValueError, match="position"):
            late_join(w, 2, position=spot)  # a reserve
        with pytest.raises(ValueError, match="position"):
            late_join(w, 1, position=spot)  # a departed sensor
        with pytest.raises(ValueError, match="position"):
            inject_adversary(w, 1, "replay", positions=[spot])
        assert w.positions == positions and 2 not in w.states and not w.adversaries
        assert w.states[1].phase is Phase.LEFT
        assert w.radio_index().neighbors == before == fresh_index(w).neighbors
        # The next join is spliced against every position stored so far.
        late_join(w, 2, position=(15, 5))
        assert w.positions[2] == (15.0, 5.0) and all(type(c) is float for c in w.positions[2])
        assert w.radio_index().neighbors == fresh_index(w).neighbors


class TestRadioMasks:
    @pytest.mark.parametrize(
        "ids, mask",
        [
            ([], 0),
            ([BS_ID], 1),
            ([6, 7, 8, 9], 0b1111 << 7),  # bits 7-10: both sides of a byte boundary
            (list(range(BS_ID, 1999)), (1 << 2000) - 1),  # a 2,000-id field
        ],
        ids=["empty", "base station", "byte boundary", "2000 ids"],
    )
    def test_ids_and_masks_round_trip(self, ids, mask):
        assert radio.mask_of(ids) == mask
        assert radio.ids_of(mask) == radios(mask) == ids

    @settings(max_examples=200, deadline=None)
    @given(ids=strategies.sets(strategies.integers(BS_ID, 1200), min_size=1), pick=strategies.integers(0))
    def test_kth_id_is_the_kth_of_the_ids(self, ids, pick):
        """Over masks holding the base station's bit 0 or not, and ids past
        500, the k-th-bit search agrees with listing the ids."""
        mask = radio.mask_of(ids)
        k = pick % len(ids)
        assert radio.kth_id(mask, k) == radio.ids_of(mask)[k] == sorted(ids)[k]

    @settings(max_examples=40, deadline=None)
    @given(
        start=strategies.lists(TestRadioIndex.SPOT, min_size=12, max_size=12),
        ops=TestRadioIndex.OPS,
        picks=strategies.lists(strategies.integers(0, 2**16 - 1), max_size=4),
    )
    def test_reach_is_the_union_of_neighbourhoods_through_splices(self, start, ops, picks):
        """``reach`` keeps its answers per radio index. A protocol radio's
        splice starts the next index with no whole-mask answers and keeps the
        per-byte unions at every byte position that holds none of the radios
        whose masks it changes: the radio and its old and new neighbours. An
        adversary's splice keeps every answer."""
        m = provision([3, 3, 4], reserve_fraction=0.4)
        w = make_world(m, {BS_ID: (20.0, 20.0), **dict(zip(m.deployed_nodes(), start))}, radius=10.0)
        # Masks over the protocol radios on the field at the start. Radios
        # only come onto this field, so these are asked again after every
        # join, move and adversary drop, when any answer kept from an earlier
        # index may be stale.
        first = sorted(v for v in w.radio_index().neighbors if v >= BS_ID)
        kept = [radio.mask_of(v for j, v in enumerate(first) if p >> j & 1) for p in picks]

        def check(touched):
            # Every radio alone, masks over the protocol radios on the field
            # now, whose ids run past the first byte, the masks kept from the
            # start, and those masks with the splice's radios added and taken
            # out, which span its byte positions and the others; each asked
            # twice: the second answer is the kept one.
            index = w.radio_index()
            on = sorted(v for v in index.neighbors if v >= BS_ID)
            masks = [radio.mask_of([v]) for v in on]
            masks += [radio.mask_of(v for j, v in enumerate(on) if p >> j & 1) for p in picks]
            masks += kept + [k | touched for k in kept] + [k & ~touched for k in kept]
            for mask in masks:
                union = 0
                for v in radios(mask):
                    union |= index.neighbors[v][0]
                assert index.reach(mask) == union
                assert index.reach(mask) == union
            # Every union kept, asked here or before a splice, is its radios'
            # neighbourhoods now.
            for i, unions in enumerate(index.unions):
                for b, union in unions.items():
                    expected = 0
                    for j in range(8):
                        if b >> j & 1:
                            expected |= index.neighbors[8 * i + j - 1][0]
                    assert union == expected

        check(0)
        for op, pick, spot in ops:
            before = w.radio_index()
            if op == "reserve":
                spare = sorted(set(m.reserve) - set(w.states))
                if not spare:
                    continue
                moved = spare[pick % len(spare)]
            elif op == "adversary":
                moved = BS_ID - 1 - len(w.adversaries)
            else:  # "rejoin" or "move": move any radio, adversaries included
                radios_on = sorted(w.positions)
                moved = radios_on[pick % len(radios_on)]
            was = before.neighbors.get(moved, (0, ()))[0]
            reaches, unions = before.reaches, [dict(u) for u in before.unions]
            if op == "reserve":
                late_join(w, moved, position=spot)
            elif op == "adversary":
                assert inject_adversary(w, 1, "forge_join", positions=[spot]) == [moved]
            else:
                w._place(moved, spot)
            index = w.radio_index()
            if moved < BS_ID:
                touched = 0
                assert index.reaches is reaches and index.unions == unions
            else:
                touched = radio.mask_of([moved]) | was | index.neighbors[moved][0]
                spans = {(v + 1) // 8 for v in radios(touched)}
                assert index.reaches == {}
                for i, u in enumerate(unions):
                    assert index.unions[i] == ({} if i in spans else u)
            check(touched)


#: The delivery rules, written out here rather than read from
#: ``protocol.DELIVERY``, so that a wrong entry there fails a test instead of
#: being copied into both sides. ``READS``: the kinds each part's step reads
#: (README's table). ``HOP1``: those it reads only heard at one hop.
#: ``ADDRESSED_TO``: the key-addressed kinds, each for the owner of the key
#: it is sealed under, or for that owner only under an individual key.
#: ``FIRST_ONLY``: the kinds of which a reader gets only the lowest-seq hop-1
#: copy each sensor sends in a round.
K = MessageKind
DOMINATOR_READS = {K.ADOPT_CMD, K.JOIN_REQ, K.GD_ERR, K.LEAVE}
READS = {
    Rank.OS: {K.REKEY, K.JOIN_APRV, K.PROMOTE_CMD},
    Rank.GD: DOMINATOR_READS,
    Rank.GD_OS: DOMINATOR_READS,
    BS_ID: {K.GD_ERR, K.ORP_ERR},
}
DOMINATOR_HOP1 = {K.JOIN_REQ, K.GD_ERR, K.LEAVE}
HOP1 = {Rank.OS: {K.JOIN_APRV}, Rank.GD: DOMINATOR_HOP1, Rank.GD_OS: DOMINATOR_HOP1, BS_ID: set()}
ADDRESSED_TO = {K.PROMOTE_CMD: "owner", K.ADOPT_CMD: "owner", K.REKEY: "individual owner"}
FIRST_ONLY = {K.JOIN_APRV}


def field_roles(material, sensors):
    """The role masks of a field holding the base station and ``sensors``,
    each playing its provisioned rank, none departed."""
    roles = dict.fromkeys((*Rank, BS_ID, None), 0)
    roles[BS_ID] = radio.mask_of([BS_ID])
    for v in sensors:
        roles[material.ranks[v]] |= radio.mask_of([v])
    return roles


def fan_out(sends, relayed, index, roles):
    """Reference delivery: every copy in the air, in transmission order, to
    every radio in range of its transmitter except departed sensors.
    Duplicate and already-seen flood copies are left for the steps to drop."""
    inboxes = {}
    neighbors = radio_neighbors(index)
    departed = set(radios(roles[None]))
    for env in radio.transmissions(sends, relayed):
        for rcv in neighbors[env.transmitter]:
            if rcv not in departed:
                inboxes.setdefault(rcv, []).append(env)
    return inboxes


def fan_out_deliver(sends, relayed, reached, index, roles, keys, replayers):
    """The reference fan-out in ``radio.deliver``'s shape, with no relays
    for the radio layer to send: the reference step relays for itself."""
    return fan_out(sends, relayed, index, roles), {}


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
    """Stands in for ``radio.deliver``: delivers for real, and asserts each
    round that ``replay`` adversaries overhear exactly the reference
    fan-out's copies and the other adversaries get nothing, that every
    protocol radio's inbox holds only copies the fan-out gave it and of
    kinds its step reads, of a flood the one with the smallest transmitter,
    of a sensor's hop-1 approvals (``FIRST_ONLY``) at most one, its lowest-seq
    copy this round, and of an adversary's every one in range, and that the
    relay records come in flood-key order, each naming in ascending order
    sensors on the field that the fan-out gave that flood."""

    deliver = staticmethod(radio.deliver)

    def __init__(self):
        self.rounds = self.skipped_copies = self.replayed_floods_kept = self.approvals_withheld = 0

    def __call__(self, sends, relayed, reached, index, roles, keys, replayers):
        expected = fan_out(sends, relayed, index, roles)
        replayed = [env for env in sends if env.kind in FLOOD_KINDS and env.transmitter < BS_ID]
        before = {flood_key(env): set(radios(reached[flood_key(env)])) for env in replayed}
        lowest = {}  # per sensor sending hop-1 approvals this round, its lowest seq
        for env in sends:
            if env.kind in FIRST_ONLY and env.transmitter == env.sender >= 0:
                lowest[env.sender] = min(lowest.get(env.sender, env.seq), env.seq)
        inboxes, relays = self.deliver(sends, relayed, reached, index, roles, keys, replayers)
        rnd = self.rounds
        self.rounds += 1
        part_of = {v: part for part, mask in roles.items() for v in radios(mask)}
        for rcv in set(expected) | set(inboxes):
            want, have = expected.get(rcv, []), inboxes.get(rcv, [])
            if rcv < BS_ID:
                assert have == (want if rcv in replayers else []), (rnd, rcv)
                assert rcv in replayers or rcv not in inboxes, (rnd, rcv)
                continue
            reads = READS[part_of[rcv]]
            assert all(env in want and env.kind in reads for env in have), (rnd, rcv)
            for env in have:  # of a flood's copies in range, the smallest transmitter's
                if env.kind in FLOOD_KINDS:
                    heard = [e.transmitter for e in want if flood_key(e) == flood_key(env)]
                    assert env.transmitter == min(heard), (rnd, rcv)
            # Hop-1 approvals: of each sensor sender in range its lowest-seq
            # copy alone; every copy an adversary sends under its own id.
            sent = [env for env in want if env.kind in FIRST_ONLY and env.kind in reads and _hop1(env)]
            firsts = [env for env in have if env.kind in FIRST_ONLY and _hop1(env)]
            senders = [env.sender for env in firsts if env.sender >= 0]
            assert sorted(senders) == sorted({env.sender for env in sent if env.sender >= 0}), (rnd, rcv)
            assert all(env.seq == lowest[env.sender] for env in firsts if env.sender >= 0), (rnd, rcv)
            assert all(env in have for env in sent if env.sender < BS_ID), (rnd, rcv)
            self.approvals_withheld += len(sent) - len(firsts)
            self.skipped_copies += len(want) - len(have)
        assert list(relays) == sorted(relays), rnd
        for key, (copy, relayers) in relays.items():
            ids = radios(relayers)
            assert ids and ids == sorted(set(ids)), (rnd, key)
            assert flood_key(copy) == key and copy.kind in FLOOD_KINDS
            for relayer in ids:
                assert part_of[relayer] is not None, (rnd, key, relayer)  # not departed
                assert payload(copy) in map(payload, expected[relayer]), (rnd, key, relayer)
        # A replayed copy sorts ahead of every legitimate one, so a radio in
        # its range that the flood reached this round was reached by a replay.
        for env in replayed:
            key = flood_key(env)
            if (set(radios(reached[key])) - before[key]) & set(radios(index.neighbors[env.transmitter][0])):
                self.replayed_floods_kept += 1
        return inboxes, relays


def pending_with_busy(pending, may_work):
    """``pending`` as it answers when the world's busy set is the sensors
    that ``may_work`` picks: the reference run keeps every ordinary sensor in
    the busy set to step it, which ``_pending`` must not read as work."""

    def answered(world):
        kept = world._busy
        world._busy = {v for v, st in world.states.items() if may_work(st)}
        try:
            return pending(world)
        finally:
            world._busy = kept

    return answered


def twin_runs(drive):
    """Run ``drive`` with the real delivery under DeliveryCheck, then again with
    the reference fan-out, the reference steps that relay for themselves, and
    every ordinary sensor stepped every round; both runs must make the same
    transmissions and leave the same events and outcome."""
    check = DeliveryCheck()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim_module, "deliver", check)
        fast_sent = record_transmissions(m)
        fast = drive()
    with pytest.MonkeyPatch.context() as m:
        slow_sent = record_transmissions(m)
        m.setattr(sim_module, "deliver", fan_out_deliver)
        seen = {}  # shared: a promoted sensor moves from os_step to gd_step
        m.setattr(sim_module, "os_step", relaying(sim_module.os_step, seen))
        m.setattr(sim_module, "gd_step", relaying(sim_module.gd_step, seen))
        m.setattr(sim_module, "bs_step", relaying(sim_module.bs_step, seen, sends_relays=False))
        m.setattr(sim_module, "_pending", pending_with_busy(sim_module._pending, sim_module._may_work))
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
        listeners = radios(listeners)
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


COMMANDS = (MessageKind.ADOPT_CMD, MessageKind.PROMOTE_CMD)


def command_field():
    """The deployed field ``simulate`` makes of ``DELIVERY_FIELD``, before
    it runs: a field whose formation ends in adoption and promotion
    commands."""
    config = RunConfig(**DELIVERY_FIELD)
    material = provision([config.eta] * config.groups, seed=config.seed)
    placement = PlacementModel(config.mode, config.width, config.height, config.resolve_radius())
    return deploy(material, placement, seed=config.seed + 1)


def command_replay_run(replayed):
    """Form ``command_field()`` with two replaying adversaries beside the
    base station that keep only the command floods they overhear, so they
    replay adoption and promotion commands while those are still passing.
    Each copy an adversary sends goes into ``replayed``."""
    world = command_field()
    inject_adversary(world, 2, "replay", positions=[(55.0, 50.0), (60.0, 55.0)])
    real = sim_module._adversary_step

    def commands_only(world, adv, inbox, victims):
        out = real(world, adv, [env for env in inbox if env.kind in COMMANDS], victims)
        replayed.extend(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim_module, "_adversary_step", commands_only)
        run(world)
    return world


def leave_under_command_run():
    """Form ``command_field()``. When the first promotion command goes up,
    the joined sensors in range of the orphan it promotes leave, so they
    depart while the flood is passing them; run to quiescence."""
    world = command_field()
    while not any(env.kind is MessageKind.PROMOTE_CMD for env in world.sends):
        assert world.round < 64, "no promotion command went up"
        step(world)
    env = next(env for env in world.sends if env.kind is MessageKind.PROMOTE_CMD)
    target = world.material.owners[env.ciphertext.key_id]
    states = world.states
    leavers = [
        v for v in radios(world.radio_index().neighbors[target][0])
        if v >= 0 and states[v].rank is Rank.OS and states[v].phase is Phase.JOINED
    ]
    assert leavers
    for v in leavers:
        leave(world, v)
    run(world)
    return world


class TestDelivery:
    @pytest.mark.parametrize("behavior", [None, *ADVERSARY_BEHAVIORS])
    def test_same_processed_inboxes_as_fan_out(self, behavior):
        extra = {} if behavior is None else {"adversary_count": 3, "adversary_behavior": behavior}
        config = RunConfig(**DELIVERY_FIELD, **extra)
        check = twin_runs(lambda: simulate(config)[0])
        assert check.rounds > 10 and check.skipped_copies > 1000 and check.approvals_withheld > 100
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
        listeners = radios(listeners)
        # Copies sent from round ``gone`` to ``back - 2`` arrived while it was away.
        missed = {
            flood_key(env) for r, env in sent
            if gone <= r <= back - 2 and env.kind in FLOOD_KINDS
            and (env.transmitter in listeners or env.transmitter in adversaries)
        }
        relayed = {flood_key(env) for r, env in sent if r >= back and env.transmitter == comeback}
        assert missed & relayed

    def test_replayed_commands_same_as_fan_out(self):
        replayed = []
        check = twin_runs(lambda: command_replay_run(replayed))
        assert check.replayed_floods_kept > 0
        assert {env.kind for env in replayed} == set(COMMANDS)

    def test_leave_while_a_promotion_passes_same_as_fan_out(self):
        check = twin_runs(leave_under_command_run)
        assert check.skipped_copies > 0

    @pytest.mark.parametrize("replayed", [False, True])
    def test_a_replay_ahead_of_a_relay_keeps_its_copy(self, replayed):
        """Two GD_ERR floods from sensor 4 stand at one front, relayed by
        sensor 2 and having reached 2-4, on a line whose base station hears
        only sensor 2 and the replaying adversary. Alone, both advance to
        sensor 1 and the base station, which gets both from sensor 2. When a
        replayed copy of the second reaches the base station first, the base
        station keeps the adversary's copy of it alone, and both floods still
        end with the same reached mask and sensor 1 relaying."""
        m = provision([2, 2])
        adv = -2
        positions = {BS_ID: (30.0, 10.0), adv: (30.0, 20.0), **{v: (10.0 * v + 10.0, 0.0) for v in range(5)}}
        index = radio.build_index(positions, 12.0)
        ct = Ciphertext(0, b"orphan", b"tag")
        first, second = (Envelope(4, MessageKind.GD_ERR, ct, seq, 4) for seq in (1, 2))
        reached, relayed = {}, {}
        for env in (first, second):  # in key order
            reached[flood_key(env)] = radio.mask_of([2, 3, 4])
            relayed[flood_key(env)] = (env._replace(transmitter=2), radio.mask_of([2]))
        sends = [second._replace(transmitter=adv)] if replayed else []
        check = DeliveryCheck()
        inboxes, relays = check(sends, relayed, reached, index, field_roles(m, range(5)), m, [adv])
        assert [(env.seq, env.transmitter) for env in inboxes[BS_ID]] == [(1, 2), (2, adv if replayed else 2)]
        for env in (first, second):
            assert radios(reached[flood_key(env)]) == [BS_ID, 1, 2, 3, 4]
            assert radios(relays[flood_key(env)][1]) == [1]

    @settings(max_examples=6, deadline=None)
    @given(seed=strategies.integers(0, 10**6), behavior=strategies.sampled_from(ADVERSARY_BEHAVIORS))
    def test_random_fields_same_as_fan_out(self, seed, behavior):
        config = RunConfig(
            groups=5, eta=7, mode="group_clustered", width=80.0, height=80.0, target_degree=8.0,
            seed=seed, adversary_count=2, adversary_behavior=behavior,
        )
        twin_runs(lambda: simulate(config)[0])


class TestFirstApprovalPerSender:
    """Of the approvals a sensor sends in one round, a reader gets the
    lowest-seq copy alone; every approval an adversary sends under its own id
    still arrives."""

    @staticmethod
    def approvals(sender, key, members):
        """One step's approvals of ``members`` by ``sender``, sealed under
        ``key`` and heard at one hop, seq ascending."""
        return [
            Envelope(sender, MessageKind.JOIN_APRV, encrypt(key, MessageKind.JOIN_APRV, pack_ids([sender, m])), seq, sender)
            for seq, m in enumerate(members, start=3)
        ]

    @staticmethod
    def delivered(material, spots, sends):
        """The inboxes ``sends`` fill on a field of the base station at the
        origin and the radios at ``spots``, at radius 12."""
        index = radio.build_index({BS_ID: (0.0, 0.0), **spots}, 12.0)
        roles = field_roles(material, [v for v in spots if v >= 0])
        return radio.deliver(sends, {}, {}, index, roles, material, [])[0]

    def test_a_sensors_lowest_seq_copy_alone(self):
        m = provision([2])
        sent = self.approvals(0, m.rings[0].group, [1, 2, 1])
        inboxes = self.delivered(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (15.0, 5.0)}, sent)
        assert inboxes[1] == inboxes[2] == [sent[0]]

    def test_every_forged_approval_arrives(self):
        m = provision([1])
        forged = self.approvals(-2, m.rings[0].group, [1, 1, 1])
        assert self.delivered(m, {0: (10.0, 0.0), 1: (20.0, 0.0), -2: (21.0, 0.0)}, forged)[1] == forged


def withheld(material, part, node, env):
    """Whether the delivery rules keep ``env`` from the step of ``node``,
    which plays ``part`` (a rank, or ``BS_ID``): a copy not heard at one hop
    of a kind the part reads only at one hop (``HOP1``), or a key-addressed
    copy (``ADDRESSED_TO``) sealed under a key ``node`` does not own."""
    if env.transmitter != env.sender and env.kind in HOP1[part]:
        return True
    to = ADDRESSED_TO.get(env.kind)
    if to is None:
        return False
    key_id = env.ciphertext.key_id
    owner = material.owners.get(key_id)
    own = material.rings[owner].individual if owner is not None else None
    addressed = to == "owner" or owner is None or (own is not None and own.id == key_id)
    return addressed and owner != node


def record_deliveries(m):
    """Record, for each round ``radio.deliver`` runs under the MonkeyPatch
    ``m``, the reference fan-out, the inboxes delivered and the part each
    protocol radio on the field plays then (its rank, ``BS_ID`` for the base
    station)."""
    rounds = []
    real = radio.deliver

    def recorded(sends, relayed, reached, index, roles, keys, replayers):
        want = fan_out(sends, relayed, index, roles)
        parts = {v: part for part, mask in roles.items() if part is not None for v in radios(mask)}
        have, relays = real(sends, relayed, reached, index, roles, keys, replayers)
        rounds.append((want, have, parts))
        return have, relays

    m.setattr(sim_module, "deliver", recorded)
    return rounds


FORGE_FIELD = RunConfig(**DELIVERY_FIELD, adversary_count=3, adversary_behavior="forge_join")


class TestDeliveryRules:
    """An inbox gets only the copies its step can act on: the hop-1 and the
    key-addressed rules, kind by kind, on a churned field with replaying
    adversaries and on a formation under ``forge_join`` adversaries."""

    DRIVES = {"churn": lambda: churn_run(8), "forge": lambda: simulate(FORGE_FIELD)[0]}

    @pytest.fixture(scope="class")
    def runs(self):
        """The world and the recorded deliveries of a drive, each run once."""
        done = {}

        def get(name):
            if name not in done:
                with pytest.MonkeyPatch.context() as m:
                    rounds = record_deliveries(m)
                    done[name] = (self.DRIVES[name](), rounds)
            return done[name]

        return get

    @staticmethod
    def received(rounds, kind):
        """Per copy of ``kind`` delivered to a protocol radio: the copy, the
        radio, and that round's fan-out and parts."""
        for want, have, parts in rounds:
            for rcv, envs in have.items():
                for env in envs:
                    if env.kind is kind and rcv >= BS_ID:
                        yield env, rcv, want, parts

    def test_reader_table(self):
        """The parts ``radio`` derives, per kind and whether a copy is heard
        at one hop, to read it: README's who-reads-what table, where a copy
        relayed or replayed reaches none of a kind's hop-1 readers."""
        os, bs, gds = {Rank.OS}, {BS_ID}, {Rank.GD, Rank.GD_OS}
        table = {
            K.ADOPT_CMD: (gds, gds),
            K.PROMOTE_CMD: (os, os),
            K.REKEY: (os, os),
            K.JOIN_REQ: (gds, set()),
            K.JOIN_APRV: (os, set()),
            K.GD_ERR: (gds | bs, bs),
            K.ORP_ERR: (bs, bs),
            K.LEAVE: (gds, set()),
        }
        want = {(kind, hop1): parts for kind, pair in table.items() for hop1, parts in zip((True, False), pair)}
        assert {key: set(parts) for key, parts in radio.READERS.items()} == want

    @pytest.mark.parametrize("name", ["churn", "forge"])
    @pytest.mark.parametrize(
        "kind, event",
        [(MessageKind.PROMOTE_CMD, "promoted"), (MessageKind.ADOPT_CMD, "adopting")],
        ids=["promote", "adopt"],
    )
    def test_command_flood_reaches_exactly_its_target(self, runs, name, kind, event):
        world, rounds = runs(name)
        owners = world.material.owners
        got = {}
        for env, rcv, _, _ in self.received(rounds, kind):
            got.setdefault(flood_key(env), []).append((rcv, owners[env.ciphertext.key_id]))
        # One copy per flood, in its target's inbox alone: the orphan
        # promoted, or the dominator whose group key seals the adoption.
        assert got and all(len(pairs) == 1 and pairs[0][0] == pairs[0][1] for pairs in got.values())
        acted = {e["node"] for e in world.events if e["event"] == event}
        assert acted == {pairs[0][0] for pairs in got.values()}
        others = sum(
            env.kind is kind and rcv != owners[env.ciphertext.key_id]
            for want, _, parts in rounds for rcv, envs in want.items() if rcv in parts for env in envs
        )
        assert others > 0  # copies the fan-out gave readers the key does not name

    @pytest.mark.parametrize("name", ["churn", "forge"])
    def test_rekey_by_its_key(self, runs, name):
        # A REKEY under a sensor's individual key goes to that sensor alone;
        # one under a group key to every ordinary sensor in range.
        world, rounds = runs(name)
        material = world.material
        seen = Counter()
        for want, have, parts in rounds:
            readers = {rcv for rcv, part in parts.items() if part is Rank.OS}
            for env in {e for envs in want.values() for e in envs if e.kind is MessageKind.REKEY}:
                in_range = {rcv for rcv, envs in want.items() if env in envs} & readers
                owner = material.owners[env.ciphertext.key_id]
                individual = material.rings[owner].individual is not None
                expected = in_range & {owner} if individual else in_range
                assert {rcv for rcv, envs in have.items() if rcv >= BS_ID and env in envs} == expected
                seen[individual] += 1
        assert seen[True] > 0 and seen[False] > 0

    @pytest.mark.parametrize("name", ["churn", "forge"])
    def test_orphan_error_relays_reach_only_the_base_station(self, runs, name):
        _, rounds = runs(name)
        relays = [
            rcv for env, rcv, _, _ in self.received(rounds, MessageKind.GD_ERR) if env.transmitter != env.sender
        ]
        assert relays and set(relays) == {BS_ID}
        at_dominators = sum(
            env.kind is MessageKind.GD_ERR and env.transmitter != env.sender
            for want, _, parts in rounds for rcv, envs in want.items()
            if parts.get(rcv) in (Rank.GD, Rank.GD_OS) for env in envs
        )
        assert at_dominators > 0

    def test_forged_join_under_a_victims_id_reaches_no_dominator(self, runs):
        world, rounds = runs("forge")
        forged = [
            rcv for env, rcv, _, _ in self.received(rounds, MessageKind.JOIN_REQ)
            if env.transmitter < BS_ID and env.sender != env.transmitter
        ]
        assert forged == []
        in_range = sum(
            env.kind is MessageKind.JOIN_REQ and env.transmitter < BS_ID and env.sender >= 0
            for want, _, parts in rounds for rcv, envs in want.items()
            if parts.get(rcv) in (Rank.GD, Rank.GD_OS) for env in envs
        )
        assert in_range > 0
        assert any(e["event"] == "foreign_announce" for e in world.events)  # under its own id it still does

    @pytest.mark.parametrize("name", ["churn", "forge"])
    def test_nothing_withheld_is_delivered(self, runs, name):
        world, rounds = runs(name)
        kept = 0
        for want, have, parts in rounds:
            for rcv, envs in want.items():
                if rcv not in parts:
                    continue
                part = parts[rcv]
                delivered = have.get(rcv, [])
                for env in envs:
                    if env.kind in READS[part] and withheld(world.material, part, rcv, env):
                        assert env not in delivered, (rcv, env)
                        kept += 1
        assert kept > 100


def live_group_keys(material):
    """Each provisioned dominator's live group key, read from its ring."""
    return {gd: material.rings[gd].group for gd, _ in material.groups}


def withheld_candidates(world, node, rng):
    """Copies of every kind ``node``'s step reads, built to open where a key
    allows: approvals, join requests, orphan errors and leaves as their
    senders would seal them, commands and rekeys under other nodes' keys,
    and the copies in the air; each both as heard at one hop and as relayed."""
    material = world.material
    states = world.states
    st = states[node]
    sensors = sorted(v for v, s in states.items() if s.rank is Rank.OS)
    dominators = sorted(v for v, s in states.items() if s.rank is not Rank.OS)
    picked = sorted(set(rng.sample(sensors, min(4, len(sensors)))) | st.subordinates)
    near = sorted(st.neighbor_dominators | ({st.dominator} if st.dominator is not None else set()))
    bodies = []
    for gd in sorted(set(near) | set(rng.sample(dominators, min(3, len(dominators))))):
        for key in (material.rings[gd].group if material.ranks[gd] is Rank.GD else None, st.ring.group):
            if key is not None:
                bodies.append((gd, MessageKind.JOIN_APRV, key, pack_ids([gd, node])))
    fresh = max(material.owners) + 1
    for v in picked:
        ikey = material.rings[v].individual
        bodies.append((v, MessageKind.JOIN_REQ, ikey, b""))
        bodies.append((v, MessageKind.GD_ERR, ikey, pack_ids(near)))
        bodies.append((v, MessageKind.LEAVE, ikey, b""))
        bodies.append((BS_ID, MessageKind.PROMOTE_CMD, ikey, b""))
        bodies.append((BS_ID, MessageKind.ADOPT_CMD, ikey, pack_id_key(v, ikey.id, ikey.bits)))
        home = next(gd for gd, members in material.groups if v in members)
        bodies.append((home, MessageKind.REKEY, ikey, pack_id_key(home, fresh, b"\x07" * 16)))
    orphan = picked[0]
    ikey = material.rings[orphan].individual
    for gd in dominators:
        for key in material.group_key_history.get(gd, {}).values():
            bodies.append((BS_ID, MessageKind.ADOPT_CMD, key, pack_id_key(orphan, ikey.id, ikey.bits)))
            bodies.append((BS_ID, MessageKind.PROMOTE_CMD, key, b""))
    out = list(world.inflight)
    for sender, kind, key, body in bodies:
        out.append(Envelope(sender, kind, encrypt(key, kind, body), 10**6, sender))
    return out + [env._replace(transmitter=-2) for env in out]  # as an adversary replays them


class TestWithheldCopiesChangeNothing:
    """Every copy the delivery rules keep from a step is one its handler
    drops: run on it, the handler leaves the state as it was, sends nothing
    and notes no event. If a handler comes to act on such a copy, this fails
    before the rules can change what a run does."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=strategies.integers(0, 10**4),
        forming=strategies.integers(0, 12),
        churning=strategies.integers(0, 6),
    )
    def test_handlers_drop_what_delivery_withholds(self, seed, forming, churning):
        rng = random.Random(seed)
        material = provision([7] * 5, reserve_fraction=0.2, seed=seed)
        world = deploy(material, PlacementModel("group_clustered", 80.0, 80.0, 22.0), seed=seed + 1)
        inject_adversary(world, 1, "replay")
        for _ in range(forming):
            step(world)
        checked = self.check(world, rng)
        run(world)
        joined = sorted(v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
        for v in joined[:2]:
            leave(world, v)
        for v in sorted(material.reserve)[:2]:
            late_join(world, v)
        for _ in range(churning):
            step(world)
        checked += self.check(world, rng)
        assert checked > 100
        assert self.check_duplicate_approvals(world, rng) > 20

    @staticmethod
    def check(world, rng):
        material = world.material
        checked = 0
        on_field = sorted(v for v, st in world.states.items() if st.phase is not Phase.LEFT)
        for node in rng.sample(on_field, min(10, len(on_field))):
            st = world.states[node]
            part = st.rank
            for env in withheld_candidates(world, node, rng):
                if env.kind not in READS[part] or not withheld(material, part, node, env):
                    continue
                trial = copy.deepcopy(st)
                keys = (live_group_keys(material), dict(material.owners))
                events, out = [], []
                handler = DELIVERY[part][env.kind].handler
                if part is Rank.OS:
                    handler(trial, env, world.round, events)
                else:
                    handler(trial, env, world.round, material, out, events)
                assert trial == st, (node, env)
                assert not out and not events, (node, env)
                assert (live_group_keys(material), dict(material.owners)) == keys
                checked += 1
        return checked

    @staticmethod
    def check_duplicate_approvals(world, rng):
        """A round's approvals from one dominator, as ``gd_step`` seals them
        (one key, seq ascending), under the dominator's group key and under the
        reader's own group key, to sensors as they stand and as if awaiting
        approval: once the first is handled, each later one changes nothing
        and notes nothing (``FIRST_ONLY``)."""
        handler = DELIVERY[Rank.OS][MessageKind.JOIN_APRV].handler
        states = world.states
        sensors = sorted(v for v, st in states.items() if st.rank is Rank.OS and st.phase is not Phase.LEFT)
        dominators = sorted(v for v, st in states.items() if st.rank is not Rank.OS and st.phase is not Phase.LEFT)
        checked = 0
        for node in rng.sample(sensors, min(6, len(sensors))):
            st = states[node]
            waiting = copy.deepcopy(st)
            waiting.phase, waiting.dominator = Phase.AWAITING, None
            near = st.neighbor_dominators | ({st.dominator} if st.dominator is not None else set())
            for gd in sorted(near | set(rng.sample(dominators, min(2, len(dominators))))):
                members = [rng.choice(sensors) for _ in range(3)] + [node]
                rng.shuffle(members)
                for key in (states[gd].ring.group, st.ring.group):
                    batch = TestFirstApprovalPerSender.approvals(gd, key, members)
                    for start in (st, waiting):
                        after = copy.deepcopy(start)
                        handler(after, batch[0], world.round, [])
                        for env in batch[1:]:
                            trial, events = copy.deepcopy(after), []
                            handler(trial, env, world.round, events)
                            assert trial == after and not events, (node, gd, env)
                            checked += 1
        return checked


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
    world counts, in the transmission order ``radio``'s docstring gives."""

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
        own = m.rings[2].individual.id
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
    """Sensors with an empty inbox are stepped only while busy: not yet
    announced, awaiting an approval, or with a leave pending."""

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
        # Stepped while it awaits an approval, and no more once it orphans.
        assert [r for v, r in calls if v == 1] == list(range(APPROVAL_TIMEOUT + 1))

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
    def test_each_key_has_one_record_through_churn(self):
        # A dominator's live group key is its ring's, the newest it has held,
        # and every key id names the one node whose ring holds the key.
        material = churn_run(8).material
        history = material.group_key_history
        assert sum(len(held) - 1 for held in history.values()) > 5
        for gd, _ in material.groups:
            live = material.rings[gd].group
            assert history[gd][max(history[gd])] is live
            assert material.owners[live.id] == gd
        sensors = [v for v, rank in material.ranks.items() if rank is Rank.OS]
        for m in sensors:
            assert material.owners[material.rings[m].individual.id] == m
        assert len(material.owners) == len(sensors) + sum(map(len, history.values()))

    def reserve_world(self):
        m = provision([4], reserve_fraction=0.5)
        return line_world(m, {0: (10.0, 0.0), 1: (20.0, 0.0), 2: (10.0, 10.0)})

    def test_leave_before_the_first_step_sends_no_join_request(self):
        """A reserve told to leave in the round it late-joins leaves without
        announcing: no dominator admits it or rekeys for it, and it can
        still join later."""
        m = provision([3], reserve_fraction=0.4, seed=1)
        w = deploy(m, PlacementModel("group_clustered", 30.0, 30.0, 20.0), seed=2)
        run(w)
        (gd, _), = m.groups
        (joiner,) = m.reserve
        members, counters, seen = set(w.states[gd].subordinates), Counter(w.counters), len(w.events)
        late_join(w, joiner)
        leave(w, joiner)
        run(w)
        assert w.states[joiner].phase is Phase.LEFT
        assert [e["event"] for e in w.events[seen:]] == ["left"]
        assert w.counters == counters and w.states[gd].subordinates == members
        late_join(w, joiner)
        run(w)
        assert w.states[joiner].phase is Phase.JOINED and w.states[gd].subordinates == members | {joiner}

    def test_leave_while_awaiting_announces_the_leave(self):
        """A sensor that leaves one round after its JOIN_REQ, while AWAITING,
        still sends a LEAVE, so the dominator that admitted it drops it and
        rekeys the others."""
        m = provision([3], reserve_fraction=0.4, seed=1)
        w = deploy(m, PlacementModel("group_clustered", 30.0, 30.0, 20.0), seed=2)
        run(w)
        (gd, _), = m.groups
        (joiner,) = m.reserve
        assert w.states[gd].subordinates == {1, 2}
        late_join(w, joiner)
        step(w)
        assert w.states[joiner].phase is Phase.AWAITING
        leave(w, joiner)
        run(w)
        assert w.states[joiner].phase is Phase.LEFT
        assert w.states[gd].subordinates == {1, 2}
        assert {w.states[v].ring.group.id for v in (1, 2)} == {m.rings[gd].group.id}
        assert w.states[joiner].ring.group.id != m.rings[gd].group.id

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
        assert st.ring.group.id == w.material.rings[0].group.id

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
        assert w.states[2].ring.group.id == m.rings[0].group.id
        assert w.states[1].ring.group.id != m.rings[0].group.id

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


def pending_by_scan(world):
    """A reference for ``sim._pending`` that, past the busy set, scans every
    state for a pending leave and for an ordinary sensor neither joined nor
    departed, as a settle test that does not trust the busy set must."""
    stuck = False
    if world.relayed:
        return sim_module._BUSY
    for env in world.sends:
        if env.transmitter >= BS_ID:
            return sim_module._BUSY
    if world._busy_sensors():
        return sim_module._BUSY
    for st in world.states.values():
        if st.pending_leave:
            return sim_module._BUSY
        if st.rank is Rank.OS and st.phase not in (Phase.JOINED, Phase.LEFT):
            if st.phase is not Phase.ORPHAN:  # unannounced or awaiting approval
                return sim_module._BUSY
            stuck = True
    for rec in world.bs.orphans.values():
        if rec.resolution is None:
            return sim_module._BUSY
    if not stuck:
        return sim_module._SETTLED
    return sim_module._QUIET if not world.sends and not world.adversaries else sim_module._BUSY


#: One churn operation: a leave or a late join of a drawn candidate (the
#: join at a drawn spot), 1-6 steps, or a run.
CHURN_OPS = strategies.one_of(
    strategies.tuples(strategies.just("leave"), strategies.integers(0, 99)),
    strategies.tuples(
        strategies.just("late_join"), strategies.integers(0, 99),
        strategies.floats(0.0, 40.0), strategies.floats(0.0, 40.0),
    ),
    strategies.tuples(strategies.just("step"), strategies.integers(1, 6)),
    strategies.tuples(strategies.just("run")),
)


class TestStateIndices:
    """The sensors that may have work and the part each sensor plays are kept
    in place; after every change they equal indices rebuilt from the states."""

    @staticmethod
    def check(world):
        twin = rebuilt(world)
        assert world._busy_sensors() == twin._busy_sensors(), world.round
        parts = world._role_index()
        assert parts == twin._role_index(), world.round
        # The parts are disjoint, and together they are the base station and
        # every sensor in ``states``.
        union = 0
        for mask in parts.values():
            assert not union & mask, world.round
            union |= mask
        assert union == radio.mask_of([BS_ID, *world.states]), world.round
        assert verify_outcome(world) == verify_outcome(twin), world.round

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
        parts = w._role_index()
        assert len(promoted) >= 3 and set(promoted).isdisjoint(radio.ids_of(parts[Rank.OS] | parts[None]))
        assert len(rounds) > 40 and not w._busy_sensors()

    @settings(max_examples=40, deadline=None)
    @given(seed=strategies.integers(0, 10**6), ops=strategies.lists(CHURN_OPS, min_size=12, max_size=12))
    def test_busy_set_is_every_sensor_that_may_work(self, seed, ops):
        """After every step of a random churn schedule, the busy set is the
        ordinary sensors ``_may_work`` picks, and ``_pending``, which trusts
        it, answers as the reference that scans every state."""
        def checked(world):
            real(world)
            assert world._busy == {v for v, st in world.states.items() if sim_module._may_work(st)}, world.round
            assert sim_module._pending(world) == pending_by_scan(world), world.round

        real = sim_module.step
        m = provision([4, 4, 4], reserve_fraction=0.3, seed=seed)
        w = deploy(m, PlacementModel("group_clustered", 40.0, 40.0, 15.0), seed=seed + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_module, "step", checked)
            for op in ops:
                if op[0] == "leave":
                    here = sorted(v for v, st in w.states.items() if st.rank is Rank.OS and st.phase is not Phase.LEFT)
                    if here:
                        leave(w, here[op[1] % len(here)])
                elif op[0] == "late_join":
                    away = sorted(m.reserve - w.states.keys()) + sorted(
                        v for v, st in w.states.items() if st.phase is Phase.LEFT
                    )
                    if away:
                        late_join(w, away[op[1] % len(away)], position=(op[2], op[3]))
                elif op[0] == "step":
                    for _ in range(op[1]):
                        sim_module.step(w)
                else:
                    run(w)


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

    def test_a_negative_count_is_refused(self):
        w = self.joined_line()
        state = w.rng.getstate()
        with pytest.raises(ValueError, match="negative"):
            inject_adversary(w, -1, "forge_join")
        assert not w.adversaries and w.rng.getstate() == state
        assert inject_adversary(w, 0, "forge_join") == []

    def test_a_refused_batch_places_no_adversary(self):
        """A batch whose later position is refused leaves the adversaries,
        the positions and the radio index as they were."""
        w = self.joined_line()
        inject_adversary(w, 1, "forge_join", positions=[(15.0, 5.0)])
        neighbors = copy.deepcopy(w.radio_index().neighbors)
        positions, adversaries = dict(w.positions), list(w.adversaries)
        with pytest.raises(ValueError):
            inject_adversary(w, 2, "replay", positions=[(1.0, 1.0), (1.0, 2.0, 3.0)])
        assert w.adversaries == adversaries and w.positions == positions
        assert w.radio_index().neighbors == neighbors == fresh_index(w).neighbors
        assert inject_adversary(w, 1, "replay") == [-3]

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
                g = unit_disk_graph([world.positions[v] for v in on_field], world.radius)
                connected = connected_within(g, range(g.n))
                outcome = assemble_outcome(world)
                for chosen in (outcome, dataclasses.replace(outcome, dominator_set=outcome.dominator_set[1:])):
                    report = verify_outcome(world, chosen)
                    assert report.graph_connected == connected, (seed, mode)
                    seen.add((report.dominating, connected))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @staticmethod
    def by_predicates(world, outcome):
        """The report by the definitions, as set walks over the on-field
        graph built afresh: the dominators' closed neighbourhood must be
        every node and induce a connected subgraph."""
        on_field = sorted(v for v, st in world.states.items() if st.phase is not Phase.LEFT)
        g = unit_disk_graph([world.positions[v] for v in on_field], world.radius)
        index = {v: i for i, v in enumerate(on_field)}
        chosen = {index[d] for d in outcome.dominator_set if d in index}
        closed = cover(g, chosen)
        dominating = len(closed) == g.n
        return VerifyReport(
            node_count=len(on_field),
            dominator_count=len(chosen),
            dominating=dominating,
            weakly_connected=dominating and connected_within(g, closed),
            graph_connected=connected_within(g, range(g.n)),
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
        index = world.radio_index()  # built by formation: every change below is spliced
        for v in sorted(world.material.reserve)[:2]:
            late_join(world, v)
        joined = sorted(v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
        comeback = joined[seed % len(joined)]
        leave(world, comeback)
        run(world)
        assert world.states[comeback].phase is Phase.LEFT
        spot = random.Random(seed)
        late_join(world, comeback, position=(spot.uniform(0.0, 80.0), spot.uniform(0.0, 80.0)))
        world._place(BS_ID, (spot.uniform(0.0, 80.0), spot.uniform(0.0, 80.0)))
        (ax, ay), (bx, by) = (world.positions[d] for d in assemble_outcome(world).dominator_set[:2])
        inject_adversary(world, 1, "forge_join", positions=[((ax + bx) / 2, (ay + by) / 2)])
        run(world)
        assert world.radio_index().neighbors is index.neighbors
        outcome = assemble_outcome(world)
        for dominators in (outcome.dominator_set, outcome.dominator_set[1:], ()):
            chosen = dataclasses.replace(outcome, dominator_set=dominators)
            assert verify_outcome(world, chosen) == self.by_predicates(world, chosen)

    @pytest.mark.parametrize("bridge", ["base station", "adversary", "departed sensor", "sensor"])
    def test_only_sensors_on_the_field_link_sensors(self, bridge):
        # Sensors 0 and 1 sit 20 apart at radius 12, and the bridge at
        # (10, 0) is in range of both. Only a sensor on the field joins them.
        middle, far = (10.0, 0.0), (60.0, 60.0)
        spots = {BS_ID: middle if bridge == "base station" else far, 0: (0.0, 0.0), 1: (20.0, 0.0)}
        if bridge in ("departed sensor", "sensor"):
            spots[2] = middle
        w = make_world(provision([2]), spots, radius=12.0)
        if bridge == "adversary":
            inject_adversary(w, 1, "replay", positions=[middle])
        if bridge == "departed sensor":
            w.states[2].phase = Phase.LEFT
        outcome = dataclasses.replace(assemble_outcome(w), dominator_set=(0, 1))
        report = verify_outcome(w, outcome)
        assert report == self.by_predicates(w, outcome)
        assert report.dominating
        assert report.graph_connected is report.weakly_connected is (bridge == "sensor")

    def test_a_departed_dominator_dominates_nothing(self):
        w = make_world(provision([1]), {BS_ID: (60.0, 60.0), 0: (0.0, 0.0), 1: (5.0, 0.0)}, radius=12.0)
        w.states[0].phase = Phase.LEFT
        outcome = dataclasses.replace(assemble_outcome(w), dominator_set=(0,))
        report = verify_outcome(w, outcome)
        assert report == self.by_predicates(w, outcome)
        assert (report.node_count, report.dominator_count, report.dominating) == (1, 0, False)

    def test_edge_fields(self):
        lone = line_world(provision([0]), {0: (5.0, 0.0)})
        empty = make_world(provision([0]), {BS_ID: (0.0, 0.0)}, radius=12.0)
        for world in (lone, empty):
            for dominators in ((), (0,)):
                outcome = dataclasses.replace(assemble_outcome(world), dominator_set=dominators)
                assert verify_outcome(world, outcome) == self.by_predicates(world, outcome)
        assert verify_outcome(empty).node_count == 0 and verify_outcome(empty).ok
        lone.states[0].phase = Phase.LEFT  # by hand, past the indices kept in place
        lone = rebuilt(lone)
        assert verify_outcome(lone) == VerifyReport(0, 0, True, True, True, True)


def outcome_field(kind, seed):
    """A formed field of 4 groups, as ``kind`` says: as formed, churned (two
    leaves, three reserve joins, a departed sensor back at another's spot),
    or with two ``forge_join`` or ``replay`` adversaries on the first two
    dominators' spots, so dominators hear them at one hop."""
    material = provision([6] * 4, reserve_fraction=0.3, seed=seed)
    world = deploy(material, PlacementModel("group_clustered", 70.0, 70.0, 20.0), seed=seed + 1)
    if kind in ("forge_join", "replay"):
        inject_adversary(world, 2, kind, positions=[world.positions[gd] for gd, _ in material.groups[:2]])
    run(world)
    if kind == "churned":
        joined = sorted(v for v, st in world.states.items() if st.rank is Rank.OS and st.phase is Phase.JOINED)
        for v in joined[:2]:
            leave(world, v)
        for v in sorted(material.reserve)[:3]:
            late_join(world, v)
        run(world)
        if joined:
            late_join(world, joined[0], position=world.positions[joined[-1]])
            run(world)
    return world


class TestAssembleOutcome:
    @pytest.mark.parametrize("kind", ["formed", "churned", "forge_join", "replay"])
    @settings(max_examples=8, deadline=None)
    @given(seed=strategies.integers(0, 10**6))
    def test_equals_the_reference_loop_every_round(self, kind, seed):
        real = sim_module.step

        def checked(world):
            real(world)
            assert assemble_outcome(world) == outcome_by_loop(world), world.round

        with pytest.MonkeyPatch.context() as m:
            m.setattr(sim_module, "step", checked)
            world = outcome_field(kind, seed)
        assert assemble_outcome(world) == outcome_by_loop(world)
        if kind == "forge_join":  # the mediators the outcome must skip
            assert any(v < 0 for st in world.states.values() for v in st.mediators)


class TestEnumReads:
    def test_the_counter_counts_class_reads(self, monkeypatch):
        with enum_reads(monkeypatch) as reads:
            for _ in range(3):
                assert Phase.LEFT is Phase("left")
            assert Rank.OS.value == "Os" and MessageKind(4) is MessageKind.JOIN_APRV
        assert reads["Phase", "LEFT"] == 3 and reads["Rank", "OS"] == 1
        assert reads["MessageKind", "JOIN_APRV"] == 1
        with enum_reads(monkeypatch) as reads:
            pass
        Phase.LEFT  # read after the block: not counted
        assert not reads

    def test_end_of_epoch_scans_read_no_member_per_sensor(self, monkeypatch):
        # The settle scan, the outcome and the check each run over the whole
        # field after every epoch; their enum reads must not grow with it.
        per_size = {}
        for n in (100, 500):
            side = 10.0 * math.sqrt(n)
            world = form_deployment(n, 9, side, side, radius_for_expected_degree(n, side, side, 12.0), seed=1)
            assert sim_module._pending(world) == sim_module._SETTLED  # the scan ran over every sensor
            outcome = assemble_outcome(world)
            counts = []
            for call in (
                lambda: sim_module._pending(world),
                lambda: assemble_outcome(world),
                lambda: verify_outcome(world, outcome),
                lambda: verify_outcome(world),
            ):
                with enum_reads(monkeypatch) as reads:
                    call()
                counts.append(sum(reads.values()))
            per_size[n] = counts
        assert per_size[100] == per_size[500], per_size


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
