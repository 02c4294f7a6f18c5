import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        with pytest.raises(ValueError):
            is_dominating(path(3), {5})


@st.composite
def graph_and_subset(draw):
    n = draw(st.integers(min_value=1, max_value=9))
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
