import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_within, cover
from wcds.graph import (
    EXHAUSTIVE_LIMIT,
    InfeasibleError,
    SizeLimitError,
    brute_min_ds,
    from_edges,
    gen_udg,
    is_cds,
    is_connected,
    is_dominating,
    is_wcds,
    radius_for_expected_degree,
    read_graph,
    unit_disk_graph,
    write_graph,
)


def path(n):
    # consecutive integer positions on a line, radius 1: a path graph
    return unit_disk_graph([(float(i), 0.0) for i in range(n)], 1.0)


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestUnitDisk:
    def test_empty(self):
        g = gen_udg(0, 10.0, 10.0, 1.0, seed=0)
        assert g.n == 0 and g.edge_count == 0

    def test_two_nodes_within_half_radius(self):
        g = unit_disk_graph([(0.0, 0.0), (0.5, 0.0)], 1.0)
        assert list(g.edges()) == [(0, 1)]

    def test_edge_rule_is_inclusive(self):
        g = unit_disk_graph([(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)], 1.0)
        assert 1 in g.adj[0]
        assert 2 not in g.adj[1]

    def test_determinism(self):
        a = gen_udg(40, 100.0, 100.0, 20.0, seed=7)
        b = gen_udg(40, 100.0, 100.0, 20.0, seed=7)
        assert a.positions == b.positions
        assert list(a.edges()) == list(b.edges())

    def test_symmetry_on_random_graphs(self):
        for seed in range(50):
            g = gen_udg(25, 50.0, 50.0, 12.0, seed=seed)
            for i in range(g.n):
                for j in g.adj[i]:
                    assert i in g.adj[j]
                assert i not in g.adj[i]

    @pytest.mark.parametrize("width, height", [(100.0, 100.0), (37.5, 0.125), (100, 30), (7, 1e6)])
    @pytest.mark.parametrize("n", [0, 1, 200])
    def test_draws_are_the_uniform_stream(self, n, width, height):
        # gen_udg fills one array from random(); it must give the floats
        # uniform(0.0, side) gives, node by node, and the graph over them.
        rng = random.Random(23)
        expected = tuple((rng.uniform(0.0, width), rng.uniform(0.0, height)) for _ in range(n))
        radius = 9.0
        g = gen_udg(n, width, height, radius, seed=23)
        assert g.positions == expected
        assert all(type(c) is float for p in g.positions for c in p)
        assert g == unit_disk_graph(expected, radius)
        for bad in ((-1, width, height, radius), (n, 0, height, radius), (n, width, -height, radius),
                    (n, width, height, 0), (n, width, height, math.nan)):
            with pytest.raises(ValueError):
                gen_udg(*bad, seed=23)

    def test_mean_degree_tracks_target(self):
        # border effects are ignored by the formula, hence the wide band
        target = 6.0
        r = radius_for_expected_degree(200, 100.0, 100.0, target)
        total = 0.0
        for seed in range(100):
            g = gen_udg(200, 100.0, 100.0, r, seed=seed)
            total += 2 * g.edge_count / g.n
        assert target - 1.0 <= total / 100 <= target + 1.0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            gen_udg(5, 0.0, 10.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_udg(5, 10.0, 10.0, -1.0, seed=0)
        with pytest.raises(ValueError):
            gen_udg(-1, 10.0, 10.0, 1.0, seed=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"plane dimensions must be positive and finite, got {bad}"):
                gen_udg(5, bad, 10.0, 1.0, seed=0)
            with pytest.raises(ValueError, match=f"plane dimensions must be positive and finite, got 10.0 x {bad}"):
                gen_udg(5, 10.0, bad, 1.0, seed=0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"radius must be positive and finite, got {bad}"):
                gen_udg(5, 10.0, 10.0, bad, seed=0)
            with pytest.raises(ValueError, match=f"radius must be positive and finite, got {bad}"):
                unit_disk_graph([(0.0, 0.0), (1.0, 1.0)], bad)
        with pytest.raises(ValueError, match="n must be non-negative"):
            from_edges(-1, [])
        with pytest.raises(ValueError, match="positions length"):
            from_edges(2, [(0, 1)], positions=[(0.0, 0.0)])
        with pytest.raises(ValueError, match="outside 0..1"):
            from_edges(2, [(0, 2)])
        with pytest.raises(ValueError, match="self loops"):
            from_edges(2, [(1, 1)])


def pair_loop(positions, radius):
    """Reference unit-disk adjacency: every pair, squared distance against r^2
    in float64, the rule the grid build must reproduce exactly."""
    r2 = float(radius) * float(radius)
    adj = [set() for _ in positions]
    for a, (xa, ya) in enumerate(positions):
        for b in range(a + 1, len(positions)):
            xb, yb = positions[b]
            if (xa - xb) * (xa - xb) + (ya - yb) * (ya - yb) <= r2:
                adj[a].add(b)
                adj[b].add(a)
    return tuple(frozenset(s) for s in adj)


def assert_matches_pair_loop(positions, radius):
    g = unit_disk_graph(positions, radius)
    assert g.adj == pair_loop(positions, radius)
    src, dst = g.pairs
    assert list(zip(src.tolist(), dst.tolist())) == sorted((i, j) for i in range(g.n) for j in g.adj[i])


RADII = st.sampled_from([1.0, 0.3, 2.5, 7.0, 1e-3, 1e6])

# Coordinates that stress the grid: multiples of the radius (pairs at exactly
# r, points on cell borders), offsets far from the origin, and spans from a
# few radii up to nearly the whole float range.
COORD = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-40, 40).map(lambda k: k * 0.25),
    st.floats(-20.0, 20.0, allow_nan=False),
    st.floats(-1e302, 1e302, allow_nan=False),
    st.floats(-1e15, 1e15, allow_nan=False).map(lambda x: 1e15 + x),
)


class TestGridBuild:
    """The grid build gives the pairwise rule's graph, edge for edge."""

    @settings(max_examples=300, deadline=None)
    @given(
        radius=RADII,
        points=st.lists(st.tuples(COORD, COORD), max_size=30),
        scale=st.sampled_from([1.0, 1e-3, 1e6]),
        copies=st.lists(st.integers(0, 29), max_size=5),
    )
    def test_matches_pair_loop(self, radius, points, scale, copies):
        positions = [(x * scale, y * scale) for x, y in points]
        positions += [positions[i] for i in copies if i < len(positions)]  # coincident points
        assert_matches_pair_loop(positions, radius)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        for positions in ([(0.0, 0.0), (1.0, 0.0)], [(-3.0, 5.0), (-3.0, 5.0)], [(0.0, 0.0), (1.5, 0.0)]):
            g = unit_disk_graph(positions[:n], 1.0)
            assert g.n == n and g.adj == pair_loop(positions[:n], 1.0)

    def test_pairs_at_exactly_r_on_cell_borders(self):
        # 3-4-5 triangles: squared distance is exactly r^2 in float64.
        positions = [(3.0 * i, 4.0 * j) for i in range(-3, 4) for j in range(-3, 4)]
        positions += [(x + 5.0, y) for x, y in positions] + [(x, y - 5.0) for x, y in positions]
        assert_matches_pair_loop(positions, 5.0)
        g = unit_disk_graph([(0.0, 0.0), (3.0, 4.0), (-5.0, 0.0)], 5.0)
        assert g.adj == (frozenset({1, 2}), frozenset({0}), frozenset({0}))

    def test_pairs_at_exactly_r_across_a_column_border(self):
        # Cells are 5 * (1 + 1e-6) wide from 0 on both axes, so x = 4 and
        # x = 7 or 9 lie in neighbouring columns. Each pair below is at squared
        # distance exactly 25 and reaches the next column's cell in the same
        # row, the row above and the row below.
        positions = [(0.0, 0.0), (4.0, 0.0), (9.0, 0.0), (4.0, 4.0), (7.0, 8.0), (4.0, 9.0), (7.0, 5.0)]
        assert_matches_pair_loop(positions, 5.0)
        adj = unit_disk_graph(positions, 5.0).adj
        assert 2 in adj[1] and 4 in adj[3] and 6 in adj[5]

    def test_single_column_and_single_row(self):
        rng = random.Random(11)
        for radius in (0.5, 1.0, 3.0):
            along = [rng.uniform(0.0, 20.0) for _ in range(60)] + [0.0, 0.5, 1.0, 1.0, 3.0]
            assert_matches_pair_loop([(2.0, t) for t in along], radius)  # one column of cells
            assert_matches_pair_loop([(t, -2.0) for t in along], radius)  # one row of cells

    def test_coincident_points_in_one_cell(self):
        near = [math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]
        cluster = [(1.0, 1.0)] * 25 + [(x, y) for x in near for y in near] + [(1.0 + 1e-9, 1.0)] * 5
        assert_matches_pair_loop(cluster, 1.0)
        assert_matches_pair_loop(cluster + [(1.5, 1.9), (9.0, 9.0)] * 3, 1.0)
        # A span past float range falls back to one cell: the clusters at the
        # far ends and in the middle are all paired inside it.
        far = [(-1.7e308, 0.0)] * 4 + [(1.7e308, 0.0)] * 3 + [(1.7e308, 0.5)]
        assert_matches_pair_loop(cluster + far, 1.0)

    def test_wide_and_negative_spans(self):
        rng = random.Random(5)
        for span in (10.0, 1e8, 1e150, 8e307):
            positions = [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(40)]
            positions += [(x + 0.5, y) for x, y in positions[:10]]
            assert_matches_pair_loop(positions, 1.0)
        assert_matches_pair_loop([(-1.7e308, 0.0), (1.7e308, 0.0), (1.7e308, 0.5)], 1.0)

    def test_random_fields(self):
        for seed in range(20):
            g = gen_udg(150, 100.0, 100.0, 11.0, seed=seed)
            assert g.adj == pair_loop(g.positions, 11.0)

    def test_non_finite_positions_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                unit_disk_graph([(0.0, 0.0), (bad, 1.0)], 1.0)

    def test_ten_thousand_nodes_in_bounded_memory(self):
        # The dense build needed one 763 MB n x n array per temporary here.
        n = 10_000
        radius = radius_for_expected_degree(n, 1000.0, 1000.0, 12.0)
        rng = random.Random(9)
        positions = [(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)) for _ in range(n)]
        tracemalloc.start()
        try:
            g = unit_disk_graph(positions, radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000_000
        assert 10 <= 2 * g.edge_count / n <= 13


class TestRadiusForDegree:
    def test_unit_area_collapse(self):
        side = math.sqrt(math.pi)
        assert radius_for_expected_degree(2, side, side, 1.0) == pytest.approx(1.0)

    def test_standard_plane(self):
        r = radius_for_expected_degree(101, 100.0, 100.0, 6.0)
        assert r == pytest.approx(math.sqrt(6.0 * 10000.0 / (math.pi * 100.0)))
        assert r == pytest.approx(13.82, abs=0.005)

    def test_doubling_degree_scales_by_sqrt2(self):
        r1 = radius_for_expected_degree(50, 80.0, 60.0, 4.0)
        r2 = radius_for_expected_degree(50, 80.0, 60.0, 8.0)
        assert r2 == pytest.approx(r1 * math.sqrt(2.0))

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            radius_for_expected_degree(1, 10.0, 10.0, 2.0)
        with pytest.raises(ValueError, match="plane dimensions"):
            radius_for_expected_degree(10, 10.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="degree must be positive"):
            radius_for_expected_degree(10, 10.0, 10.0, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"degree must be positive and finite, got {bad}"):
                radius_for_expected_degree(10, 10.0, 10.0, bad)
            with pytest.raises(ValueError, match=f"plane dimensions must be positive and finite, got {bad}"):
                radius_for_expected_degree(10, bad, 10.0, 2.0)
            with pytest.raises(ValueError, match=f"plane dimensions must be positive and finite, got 10.0 x {bad}"):
                radius_for_expected_degree(10, 10.0, bad, 2.0)


class TestPredicates:
    def test_all_vertices_dominate(self):
        g = gen_udg(12, 30.0, 30.0, 8.0, seed=3)
        assert is_dominating(g, set(range(g.n)))

    def test_empty_set_on_nonempty_graph(self):
        assert not is_dominating(path(3), set())

    def test_path_center_dominates(self):
        assert is_dominating(path(3), {1})

    def test_cds_on_path5(self):
        g = path(5)
        assert is_cds(g, {1, 2, 3})
        assert not is_cds(g, {1, 3})

    def test_cds_single_vertex_on_complete(self):
        assert is_cds(complete(4), {0})

    def test_wcds_on_path5(self):
        g = path(5)
        assert is_wcds(g, {1, 3})
        assert is_wcds(g, {1, 2, 3})

    def test_wcds_disjoint_edges(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert not is_wcds(g, {0, 2})

    def test_disconnected_inputs_are_legal(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert is_dominating(g, {0, 2})
        assert not is_cds(g, {0, 2})

    def test_invalid_vertex_rejected(self):
        # numpy would wrap -1 to the last node, so each predicate must refuse
        # ids below 0 as well as ids of n or more (one past int64 too), on
        # the empty graph too.
        for g in (path(3), from_edges(0, [])):
            for predicate in (is_dominating, is_cds, is_wcds):
                for bad in (-1, g.n, g.n + 2, 2**70):
                    with pytest.raises(ValueError, match=f"node {bad} outside"):
                        predicate(g, {bad})
                    with pytest.raises(ValueError, match=f"node {bad} outside"):
                        predicate(g, [0, bad] if g.n else [bad])

    def test_empty_set_on_empty_graph(self):
        g = from_edges(0, [])
        for predicate in (is_dominating, is_cds, is_wcds):
            assert predicate(g, set()) is True
            assert predicate(g, np.array([], dtype=np.int64)) is True


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    radius = draw(st.floats(min_value=1.0, max_value=15.0))
    g = gen_udg(n, 10.0, 10.0, radius, seed=seed)
    mask = draw(st.integers(min_value=0, max_value=2**n - 1))
    return g, {i for i in range(n) if mask >> i & 1}


class TestDefinitionChain:
    @given(graph_and_subset())
    @settings(max_examples=300, deadline=None)
    def test_cds_implies_wcds_implies_dominating(self, gs):
        g, s = gs
        if is_cds(g, s):
            assert is_wcds(g, s)
        if is_wcds(g, s):
            assert is_dominating(g, s)


class TestSetWalkDefinitions:
    """The edge-array predicates equal their definitions as set walks."""

    @given(graph_and_subset())
    @settings(max_examples=400, deadline=None)
    def test_predicates_equal_the_walks(self, gs):
        g, s = gs
        closed = cover(g, s)
        dominating = len(closed) == g.n
        assert is_dominating(g, s) is dominating
        assert is_cds(g, s) is (dominating and connected_within(g, s))
        assert is_wcds(g, s) is (dominating and connected_within(g, closed))


class TestBruteForce:
    def test_path5_sizes(self):
        g = path(5)
        assert brute_min_ds(g, "cds") == {1, 2, 3}
        w = brute_min_ds(g, "wcds")
        assert len(w) == 2 and is_wcds(g, w)

    def test_scan_order_tie_break(self):
        # {0, 3} and {1, 3} both dominate; the subset scan reaches {0, 3} first
        assert brute_min_ds(path(5), "wcds") == {0, 3}
        assert brute_min_ds(path(5), "dominating") == {0, 3}

    def test_complete_graph_all_modes(self):
        g = complete(4)
        for mode in ("dominating", "cds", "wcds"):
            assert brute_min_ds(g, mode) == {0}

    def test_star_center(self):
        assert brute_min_ds(star(8), "dominating") == {0}

    def test_strict_gap_witness(self):
        g = path(5)
        assert len(brute_min_ds(g, "wcds")) < len(brute_min_ds(g, "cds"))

    def test_size_limit(self):
        g = gen_udg(EXHAUSTIVE_LIMIT + 1, 10.0, 10.0, 20.0, seed=0)
        with pytest.raises(SizeLimitError):
            brute_min_ds(g, "dominating")

    def test_disconnected_rejected_for_connected_modes(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleError):
            brute_min_ds(g, "cds")
        assert brute_min_ds(g, "dominating") == {0, 2}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            brute_min_ds(path(3), "total")

    def test_minimality_against_direct_scan(self):
        # every smaller subset must fail the predicate
        for seed in range(10):
            g = gen_udg(7, 10.0, 10.0, 5.0, seed=seed)
            if not is_connected(g):
                continue
            best = brute_min_ds(g, "wcds")
            for size in range(len(best)):
                for combo in itertools.combinations(range(g.n), size):
                    assert not is_wcds(g, set(combo))


class TestSerialization:
    def test_geometric_round_trip(self, tmp_path):
        g = gen_udg(15, 40.0, 40.0, 12.0, seed=11)
        p = tmp_path / "g.txt"
        with open(p, "w") as out:
            write_graph(g, out)
        with open(p) as inp:
            h = read_graph(inp)
        assert h.n == g.n
        assert h.radius == g.radius
        assert h.positions == g.positions
        assert list(h.edges()) == list(g.edges())

    def test_non_geometric_graph_survives(self, tmp_path):
        g = star(8)
        p = tmp_path / "s.txt"
        with open(p, "w") as out:
            write_graph(g, out)
        with open(p) as inp:
            h = read_graph(inp)
        assert list(h.edges()) == list(g.edges())

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        for text, message in (
            ("nodes=3\n", "bad header"),
            ("n=2 r=1.0\n0 0.0 0.0\n", "truncated node section"),
            ("n=2 r=1.0\n0 0.0 0.0\n2 1.0 0.0\n", "consecutive"),
            ("n=2 r=1.0\n0 0.0 0.0\n1 1.0 0.0\n0 1 1\n", "bad edge line"),
        ):
            p.write_text(text)
            with open(p) as inp:
                with pytest.raises(ValueError, match=message):
                    read_graph(inp)


class TestConnectivity:
    def test_connectivity_helpers(self):
        assert is_connected(path(4))
        assert not is_connected(from_edges(3, [(0, 1)]))
        assert is_connected(gen_udg(0, 1.0, 1.0, 1.0, seed=0))


def eager_adj(n, edge_list):
    """Each node's neighbours, straight from an edge list."""
    adj = [set() for _ in range(n)]
    for i, j in edge_list:
        adj[i].add(j)
        adj[j].add(i)
    return tuple(frozenset(s) for s in adj)


@st.composite
def edge_lists(draw, max_n=25):
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(pairs, max_size=3 * n))


@st.composite
def any_graphs(draw):
    """Random unit-disk graphs and random ``from_edges`` graphs."""
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), max_size=30))
        return unit_disk_graph(points, draw(st.sampled_from([0.5, 1.5, 3.0, 6.0])))
    return from_edges(*draw(edge_lists()))


def round_trip(g):
    out = io.StringIO()
    write_graph(g, out)
    return read_graph(io.StringIO(out.getvalue()))


class TestEquality:
    """Graphs are equal when their nodes, positions, radius and edges are."""

    def test_other_edges_same_positions_are_unequal(self):
        a = from_edges(4, [(0, 1), (2, 3)])
        b = from_edges(4, [(0, 2), (1, 3)])
        assert a.n == b.n and a.positions == b.positions and a.radius == b.radius
        assert a.edge_count == b.edge_count
        assert a != b
        assert from_edges(3, [(0, 1)]) != from_edges(3, [])

    def test_same_edges_in_any_order_are_equal(self):
        a = from_edges(4, [(0, 1), (2, 3)])
        b = from_edges(4, [(3, 2), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != from_edges(4, [(0, 1), (2, 3)], radius=2.0)
        assert a != from_edges(4, [(0, 1), (2, 3)], positions=[(0.0, 0.0)] * 3 + [(1.0, 0.0)])

    def test_file_round_trip_is_equal(self):
        graphs = [star(8), from_edges(0, []), from_edges(3, [])]
        graphs += [gen_udg(n, 40.0, 40.0, 12.0, seed=n) for n in (1, 2, 15, 60)]
        for g in graphs:
            h = round_trip(g)
            assert h == g and hash(h) == hash(g)

    @settings(max_examples=200, deadline=None)
    @given(edges=edge_lists())
    def test_lazy_adj_is_the_edge_list(self, edges):
        g = from_edges(*edges)
        assert g.adj == eager_adj(*edges)
        assert g == from_edges(g.n, list(g.edges()))

    def test_lazy_adj_is_the_pair_loop(self):
        for seed in range(20):
            g = gen_udg(80, 100.0, 100.0, 15.0, seed=seed)
            assert g.adj == pair_loop(g.positions, 15.0)
            assert g.adj is g.adj  # built once


def walk_connected(g):
    """The reference: one set walk from node 0 covers every node."""
    return connected_within(g, range(g.n))


def shuffled_path(n, seed, closed=False):
    """A path (or cycle) through all n nodes in a random id order: the worst
    case for label propagation, since neighbouring ids are far apart."""
    order = random.Random(seed).sample(range(n), n)
    return list(zip(order, order[1:] + order[:1] if closed else order[1:]))


class TestEdgeArrayConnectivity:
    """``is_connected`` on the edge arrays agrees with the set walk."""

    @settings(max_examples=400, deadline=None)
    @given(g=any_graphs())
    def test_random_graphs(self, g):
        assert is_connected(g) == walk_connected(g)

    def test_tiny_graphs(self):
        for g, want in (
            (from_edges(0, []), True),
            (from_edges(1, []), True),
            (from_edges(2, []), False),
            (from_edges(2, [(0, 1)]), True),
        ):
            assert is_connected(g) is want and walk_connected(g) is want

    def test_isolated_nodes(self):
        clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        for lone in (0, 3, 6):
            edges = [(i + (i >= lone), j + (j >= lone)) for i, j in clique]
            g = from_edges(7, edges)
            assert not is_connected(g) and not walk_connected(g)

    def test_two_clusters(self):
        # Enough edges and no isolated node, so only the labels can tell.
        left = [(i, j) for i in range(0, 10, 2) for j in range(i + 2, 10, 2)]
        right = [(i, j) for i in range(1, 10, 2) for j in range(i + 2, 10, 2)]
        assert not is_connected(from_edges(10, left + right))
        assert is_connected(from_edges(10, left + right + [(8, 1)]))

    def test_long_paths(self):
        n = 3000
        for seed in range(3):
            path_edges = shuffled_path(n, seed)
            assert is_connected(from_edges(n, path_edges))
            assert is_connected(from_edges(n, shuffled_path(n, seed, closed=True)))
            # Two cycles of half the nodes each: n edges, no isolated node.
            half = [(a + n // 2, b + n // 2) for a, b in shuffled_path(n // 2, seed + 10, closed=True)]
            both = shuffled_path(n // 2, seed + 20, closed=True) + half
            assert not is_connected(from_edges(n, both))
            assert is_connected(from_edges(n, both + [(0, n - 1)]))
        ascending = from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert is_connected(ascending) and walk_connected(ascending)
