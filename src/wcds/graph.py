"""Unit-disk graphs on the plane, dominating-set predicates, and an exact solver.

Nodes are integers 0..n-1 with fixed double-precision positions. All randomness
flows through explicit seeds, so identical inputs rebuild identical graphs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

EXHAUSTIVE_LIMIT = 14

MODES = ("dominating", "cds", "wcds")


class SizeLimitError(ValueError):
    """Graph too large for exhaustive subset search."""


class InfeasibleError(ValueError):
    """No vertex set with the requested property exists for this graph."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with planar positions and a shared radio radius.

    The unit-disk constructors create an edge (i, j), i != j, exactly when
    dist(i, j) <= radius, decided on squared distances with no tolerance.
    ``from_edges`` builds arbitrary adjacency for parsers and tests; the
    geometric rule is guaranteed only for gen_udg / unit_disk_graph output.
    """

    n: int
    positions: tuple[tuple[float, float], ...]
    radius: float
    adj: tuple[frozenset[int], ...]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (i, j) with i < j, in sorted order."""
        for i in range(self.n):
            for j in sorted(self.adj[i]):
                if i < j:
                    yield (i, j)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2


def unit_disk_graph(positions: Sequence[tuple[float, float]], radius: float) -> Graph:
    """Build the unit-disk graph over explicit positions."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    pos = tuple((float(x), float(y)) for x, y in positions)
    n = len(pos)
    if n == 0:
        return Graph(0, (), float(radius), ())
    arr = np.asarray(pos, dtype=np.float64)
    dx = arr[:, 0][:, None] - arr[:, 0][None, :]
    dy = arr[:, 1][:, None] - arr[:, 1][None, :]
    within = (dx * dx + dy * dy) <= float(radius) * float(radius)
    np.fill_diagonal(within, False)
    adj = tuple(frozenset(np.flatnonzero(within[i]).tolist()) for i in range(n))
    return Graph(n, pos, float(radius), adj)


def gen_udg(n: int, width: float, height: float, radius: float, seed: int) -> Graph:
    """Sample n node positions uniformly on a width x height plane and connect by disk."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if width <= 0 or height <= 0:
        raise ValueError("plane dimensions must be positive")
    rng = random.Random(seed)
    positions = [(rng.uniform(0.0, width), rng.uniform(0.0, height)) for _ in range(n)]
    return unit_disk_graph(positions, radius)


def from_edges(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    positions: Sequence[tuple[float, float]] | None = None,
    radius: float = 1.0,
) -> Graph:
    """Build a graph from an explicit edge list; positions default to the origin.

    The geometric edge rule does not apply here. Used by the file parser and by
    tests that need topologies a disk graph cannot realize.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if positions is None:
        positions = ((0.0, 0.0),) * n
    if len(positions) != n:
        raise ValueError("positions length must equal n")
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, j in edge_list:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
        if i == j:
            raise ValueError("self loops are not allowed")
        sets[i].add(j)
        sets[j].add(i)
    pos = tuple((float(x), float(y)) for x, y in positions)
    return Graph(n, pos, float(radius), tuple(frozenset(s) for s in sets))


def radius_for_expected_degree(n: int, width: float, height: float, degree: float) -> float:
    """Radius giving mean degree ``degree`` for n uniform nodes on the plane.

    Solves degree = pi * r^2 * (n - 1) / (width * height), the expected number
    of other nodes falling inside one disk, ignoring boundary effects.
    """
    if n < 2:
        raise ValueError("need at least two nodes for a mean degree")
    if width <= 0 or height <= 0:
        raise ValueError("plane dimensions must be positive")
    if degree <= 0:
        raise ValueError("degree must be positive")
    return math.sqrt(degree * width * height / (math.pi * (n - 1)))


def _vertex_set(g: Graph, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(int(v) for v in members)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} outside 0..{g.n - 1}")
    return s


def is_dominating(g: Graph, members: Iterable[int]) -> bool:
    """True iff every node is in the set or adjacent to a member."""
    s = _vertex_set(g, members)
    covered = set(s)
    for v in s:
        covered.update(g.adj[v])
    return len(covered) == g.n


def _connected_within(g: Graph, keep: frozenset[int]) -> bool:
    # Empty and singleton sets count as connected.
    if len(keep) <= 1:
        return True
    start = min(keep)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u in keep and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(keep)


def is_cds(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates g and induces a connected subgraph."""
    s = _vertex_set(g, members)
    return is_dominating(g, s) and _connected_within(g, s)


def is_wcds(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates g and the union of its closed neighborhoods
    induces a connected subgraph."""
    s = _vertex_set(g, members)
    if not is_dominating(g, s):
        return False
    cover = set(s)
    for v in s:
        cover.update(g.adj[v])
    return _connected_within(g, frozenset(cover))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or _connected_within(g, frozenset(range(g.n)))


def _mask_connected(mask: int, nbr_masks: Sequence[int]) -> bool:
    if mask == 0:
        return True
    seen = mask & -mask
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= nbr_masks[low.bit_length() - 1]
            m ^= low
        nxt &= mask
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def brute_min_ds(g: Graph, mode: str, limit: int = EXHAUSTIVE_LIMIT) -> frozenset[int]:
    """Exhaustively find a minimum dominating / cds / wcds vertex set.

    Subsets are scanned in order of increasing size and, within one size, in
    lexicographic order of the sorted member list, so the answer is unique for
    a given graph. Graphs larger than ``limit`` are refused.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g.n > limit:
        raise SizeLimitError(f"graph has {g.n} nodes, exhaustive limit is {limit}")
    if mode in ("cds", "wcds") and not is_connected(g):
        raise InfeasibleError(f"no {mode} exists on a disconnected graph")
    nbr = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    closed = [nbr[v] | (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            cover = 0
            smask = 0
            for v in combo:
                cover |= closed[v]
                smask |= 1 << v
            if cover != full:
                continue
            if mode == "cds" and not _mask_connected(smask, nbr):
                continue
            if mode == "wcds" and not _mask_connected(cover, nbr):
                continue
            return frozenset(combo)
    raise InfeasibleError("exhausted all subsets")  # unreachable on valid input


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Restrict g to ``keep``, renumbering nodes 0..k-1 in ascending old-id order.

    Returns the subgraph and the old ids in new-index order.
    """
    order = tuple(sorted(_vertex_set(g, keep)))
    index = {v: k for k, v in enumerate(order)}
    adj = tuple(
        frozenset(index[u] for u in g.adj[v] if u in index) for v in order
    )
    positions = tuple(g.positions[v] for v in order)
    return Graph(len(order), positions, g.radius, adj), order


def write_graph(g: Graph, out: TextIO) -> None:
    """Serialize: one header line, then one line per node, then one per edge."""
    out.write(f"n={g.n} r={g.radius!r}\n")
    for i, (x, y) in enumerate(g.positions):
        out.write(f"{i} {x!r} {y!r}\n")
    for i, j in g.edges():
        out.write(f"{i} {j}\n")


def read_graph(inp: TextIO) -> Graph:
    """Parse the format written by write_graph, preserving edges exactly."""
    header = inp.readline().strip()
    parts = header.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("r="):
        raise ValueError(f"bad header line: {header!r}")
    n = int(parts[0][2:])
    radius = float(parts[1][2:])
    positions: list[tuple[float, float]] = []
    for _ in range(n):
        fields = inp.readline().split()
        if len(fields) != 3:
            raise ValueError("truncated node section")
        if int(fields[0]) != len(positions):
            raise ValueError("node ids must be consecutive from zero")
        positions.append((float(fields[1]), float(fields[2])))
    edges = []
    for line in inp:
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ValueError(f"bad edge line: {line!r}")
        edges.append((int(fields[0]), int(fields[1])))
    return from_edges(n, edges, positions=positions, radius=radius)
