"""Greedy connected-dominating-set baselines.

Two centralized reference constructions used as size yardsticks for the
clustered dominator sets built by the protocol: a single-phase growth that
repeatedly blackens the most productive frontier node or node pair, and a
two-phase variant that greedily picks a dominating set first and then buys
connector nodes along shortest paths. They are reference implementations in
the classic greedy style only; no claim is made of matching any particular
published variant's tie-breaking, message complexity, or distributed
realization beyond what is stated here.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import Graph, InfeasibleError, components, is_connected


def _check(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("empty graph has no connected dominating set")
    if not is_connected(g):
        raise InfeasibleError("no connected dominating set on a disconnected graph")


def cds_alg1(g: Graph) -> frozenset[int]:
    """Single-phase greedy growth.

    Start from a highest-degree node colored black; its neighbors turn gray,
    everyone else starts white. Repeatedly blacken either one gray node or a
    gray node together with one of its white neighbors, whichever removes the
    most white nodes, until no white remains. Ties prefer the smallest node
    id, and a lone node over a pair. The black set is returned.
    """
    _check(g)
    if g.n == 1:
        return frozenset({0})
    adj = g.adj
    white = set(range(g.n))
    gray: set[int] = set()
    black: set[int] = set()
    grayed: list[int] = []

    def blacken(v: int) -> None:
        black.add(v)
        gray.discard(v)
        white.discard(v)
        for u in adj[v]:
            if u in white:
                white.remove(u)
                gray.add(u)
                grayed.append(u)

    def gain(u: int, w: int) -> int:
        return len(white & (adj[u] if w < 0 else adj[u] | adj[w]))

    start = min(range(g.n), key=lambda v: (-len(adj[v]), v))
    blacken(start)

    # Lazy greedy over (-gain, u, w), w = -1 for singles. Every candidate is
    # pushed when u turns gray; a candidate's gain only falls, and once u is
    # black or w is no longer white it never comes back. So a popped live
    # entry whose gain still holds is the least candidate of the full scan.
    heap: list[tuple[int, int, int]] = []
    while white:
        for u in grayed:
            near = white & adj[u]
            if u in gray and near:
                for w in (-1, *near):
                    heapq.heappush(heap, (-gain(u, w), u, w))
        grayed.clear()
        while True:
            assert heap, "connected graph must expose a gray-white frontier"
            stored, u, w = heapq.heappop(heap)
            if u not in gray or (w >= 0 and w not in white):
                continue
            now = gain(u, w)
            if now == -stored:
                break
            if now:
                heapq.heappush(heap, (-now, u, w))
        blacken(u)
        if w >= 0:
            blacken(w)
    return frozenset(black)


def cds_alg2(g: Graph) -> frozenset[int]:
    """Dominate first, then connect.

    Phase one greedily picks the node covering the most uncovered nodes
    (closed neighborhoods, ties to the smallest id) until everything is
    covered. Phase two repeatedly runs a breadth-first search from the
    fragment containing the smallest chosen node and adds the interior of a
    shortest path to the nearest other fragment, until the chosen set induces
    a connected subgraph.
    """
    _check(g)
    adj = g.adj
    closed = [frozenset(adj[v] | {v}) for v in range(g.n)]

    uncovered = set(range(g.n))
    chosen: set[int] = set()
    # Lazy greedy (Minoux 1978): a node's gain only falls as nodes get
    # covered, so a stored gain bounds the true one. A popped entry whose
    # gain still holds is the least (-gain, v) of all, ties to the lower id.
    heap = [(-len(closed[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    while uncovered:
        stored, v = heapq.heappop(heap)
        gain = len(uncovered & closed[v])
        if gain != -stored:
            if gain:
                heapq.heappush(heap, (-gain, v))
            continue
        chosen.add(v)
        uncovered -= closed[v]

    # Label the fragments once: a path joins the core with every fragment its
    # nodes touch, and fragments are maximal, so no other fragment joins.
    label = components(g, np.isin(np.arange(g.n), list(chosen))).tolist()
    fragments: dict[int, set[int]] = {}
    for v in chosen:
        fragments.setdefault(label[v], set()).add(v)
    core = fragments.pop(label[min(chosen)])
    while fragments:
        path = _shortest_escape(g, core, chosen)
        chosen.update(path)
        core.update(path)
        for v in path:
            for u in adj[v]:
                core.update(fragments.pop(label[u], ()))
    return frozenset(chosen)


def _shortest_escape(g: Graph, core: set[int], members: set[int]) -> list[int]:
    """Interior nodes of a shortest path from ``core`` to any other fragment."""
    parent: dict[int, int | None] = {v: None for v in core}
    frontier = sorted(core)
    targets = members - core
    while frontier:
        nxt = []
        hits = [v for v in frontier if v in targets]
        if hits:
            node = min(hits)
            path = []
            cur = parent[node]
            while cur is not None and cur not in core:
                path.append(cur)
                cur = parent[cur]
            return path
        for v in frontier:
            for u in sorted(g.adj[v]):
                if u not in parent:
                    parent[u] = v
                    nxt.append(u)
        frontier = sorted(nxt)
    raise InfeasibleError("fragments are not mutually reachable")  # unreachable if g connected
