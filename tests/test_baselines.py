import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import component
from wcds.baselines import _shortest_escape, cds_alg1, cds_alg2
from wcds.graph import (
    InfeasibleError,
    brute_min_ds,
    from_edges,
    gen_udg,
    is_cds,
    is_connected,
    radius_for_expected_degree,
    unit_disk_graph,
)


def path(n):
    return unit_disk_graph([(float(i), 0.0) for i in range(n)], 1.0)


def complete(n):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def connected_udg(n, radius, seed):
    # bump the seed until the sample is connected
    for attempt in range(200):
        g = gen_udg(n, 100.0, 100.0, radius, seed=seed + 7919 * attempt)
        if is_connected(g):
            return g
    raise AssertionError("no connected sample found")


class TestSmallGraphs:
    def test_path5(self):
        g = path(5)
        assert cds_alg1(g) == {1, 2, 3}
        assert cds_alg2(g) == {1, 2, 3}

    def test_complete5_single_node(self):
        g = complete(5)
        assert cds_alg1(g) == {0}
        assert cds_alg2(g) == {0}

    def test_star_center_only(self):
        g = star(8)
        assert cds_alg1(g) == {0}
        assert cds_alg2(g) == {0}

    def test_single_node(self):
        g = from_edges(1, [])
        assert cds_alg1(g) == {0}
        assert cds_alg2(g) == {0}

    def test_two_nodes(self):
        g = path(2)
        assert cds_alg1(g) == {0}
        assert cds_alg2(g) == {0}

    def test_alg2_buys_connectors(self):
        # two far hubs joined by a chain: phase one picks the hubs,
        # phase two must add every interior chain node
        edges = [(0, i) for i in range(1, 5)]
        edges += [(5, i) for i in range(6, 10)]
        edges += [(0, 10), (10, 11), (11, 5)]
        g = from_edges(12, edges)
        result = cds_alg2(g)
        assert {0, 5, 10, 11} <= result
        assert is_cds(g, result)


class TestInvalidInputs:
    def test_empty_graph(self):
        g = from_edges(0, [])
        with pytest.raises(ValueError):
            cds_alg1(g)
        with pytest.raises(ValueError):
            cds_alg2(g)

    def test_disconnected_graph(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleError):
            cds_alg1(g)
        with pytest.raises(InfeasibleError):
            cds_alg2(g)


class TestRandomGraphs:
    def test_outputs_are_always_cds(self):
        for n in range(10, 61, 10):
            for trial in range(10):
                g = connected_udg(n, 30.0, seed=1000 * n + trial)
                assert is_cds(g, cds_alg1(g))
                assert is_cds(g, cds_alg2(g))

    def test_never_beats_the_optimum(self):
        for trial in range(20):
            g = connected_udg(9, 40.0, seed=trial)
            opt = len(brute_min_ds(g, "cds"))
            assert len(cds_alg1(g)) >= opt
            assert len(cds_alg2(g)) >= opt

    def test_deterministic(self):
        g = connected_udg(40, 25.0, seed=99)
        h = connected_udg(40, 25.0, seed=99)
        assert cds_alg1(g) == cds_alg1(h)
        assert cds_alg2(g) == cds_alg2(h)


def rescan_alg1(g):
    """cds_alg1 as a full rescan of every gray node and gray-white pair on
    each pick: the reference for the lazy heap."""
    if g.n == 1:
        return frozenset({0})
    adj = g.adj
    white = set(range(g.n))
    gray, black = set(), set()

    def blacken(v):
        black.add(v)
        gray.discard(v)
        white.discard(v)
        for u in adj[v]:
            if u in white:
                white.remove(u)
                gray.add(u)

    blacken(min(range(g.n), key=lambda v: (-len(adj[v]), v)))
    while white:
        best = None
        for u in sorted(gray):
            wn = white & adj[u]
            if not wn:
                continue
            cand = (-len(wn), u, -1)
            if best is None or cand < best:
                best = cand
            for w in sorted(wn):
                cand = (-len(white & (adj[u] | adj[w])), u, w)
                if cand < best:
                    best = cand
        _, u, w = best
        blacken(u)
        if w >= 0:
            blacken(w)
    return frozenset(black)


def rescan_dominators(g):
    """cds_alg2's phase one as a rescan of every node on each pick: the
    reference for the lazy heap."""
    closed = [g.adj[v] | {v} for v in range(g.n)]
    uncovered = set(range(g.n))
    chosen = set()
    while uncovered:
        v = min(range(g.n), key=lambda v: (-len(uncovered & closed[v]), v))
        chosen.add(v)
        uncovered -= closed[v]
    return chosen


def fragments(g, members):
    """The components of the subgraph ``members`` induces, each found by a
    set walk."""
    left = set(members)
    out = []
    while left:
        out.append(component(g, min(left), left))
        left -= out[-1]
    return out


def rescan_alg2(g):
    """cds_alg2 by the reference phase one, with phase two finding every
    fragment afresh after each path. The shortest path is the module's."""
    chosen = rescan_dominators(g)
    while len(split := fragments(g, chosen)) > 1:
        core = next(f for f in split if min(chosen) in f)
        chosen.update(_shortest_escape(g, core, chosen))
    return frozenset(chosen)


@st.composite
def small_connected_graphs(draw):
    """A random spanning tree on up to 12 nodes plus random extra edges."""
    n = draw(st.integers(1, 12))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    if n > 1:
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    return from_edges(n, [(i, j) for i, j in edges if i != j])


class TestLazyGreedy:
    """The lazy heaps pick what a rescan of every candidate picks."""

    def test_connected_udgs(self):
        checked = 0
        for n in (2, 5, 10, 20, 40, 60, 80):
            for degree in (3.0, 6.0, 12.0):
                radius = radius_for_expected_degree(n, 100.0, 100.0, degree)
                for seed in range(40):
                    g = gen_udg(n, 100.0, 100.0, radius, seed=seed)
                    if not is_connected(g):
                        continue
                    assert cds_alg1(g) == rescan_alg1(g), (n, degree, seed)
                    assert cds_alg2(g) == rescan_alg2(g), (n, degree, seed)
                    checked += 1
        assert checked > 300

    @settings(max_examples=300, deadline=None)
    @given(g=small_connected_graphs())
    def test_small_graphs(self, g):
        assert cds_alg1(g) == rescan_alg1(g)
        assert cds_alg2(g) == rescan_alg2(g)


def largest_component(g):
    """The unit-disk graph over the nodes of g's largest component."""
    big = max(fragments(g, range(g.n)), key=len)
    return unit_disk_graph([g.positions[v] for v in sorted(big)], g.radius)


class TestPhaseTwo:
    """cds_alg2 labels the phase-one fragments once and merges into the core
    the fragments each path touches; that connects the same set as finding
    every fragment afresh after each path."""

    def test_sparse_udgs_with_many_fragments(self):
        # Uniform draws at degree 3-4 are almost never connected, so each
        # case is the largest component of one.
        many = 0
        for n in range(40, 201, 20):
            for degree in (3.0, 3.5, 4.0):
                radius = radius_for_expected_degree(n, 100.0, 100.0, degree)
                for seed in range(10):
                    g = largest_component(gen_udg(n, 100.0, 100.0, radius, seed=seed))
                    many += len(fragments(g, rescan_dominators(g))) >= 3
                    assert cds_alg2(g) == rescan_alg2(g), (n, degree, seed)
        assert many >= 200
