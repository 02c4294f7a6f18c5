"""Unit-disk graphs on the plane, dominating-set predicates, and an exact solver.

Nodes are integers 0..n-1 with fixed double-precision positions. All randomness
flows through explicit seeds, so identical inputs rebuild identical graphs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Sequence, TextIO

import numpy as np

EXHAUSTIVE_LIMIT = 14


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
    Every constructor goes through ``from_pairs``.
    """

    n: int
    positions: tuple[tuple[float, float], ...]
    radius: float
    adj: tuple[frozenset[int], ...]
    #: The edge arrays ``adj`` came from, each edge in both directions,
    #: sorted by src then dst.
    pairs: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (i, j) with i < j, in sorted order."""
        src, dst = self.pairs
        once = src < dst
        return zip(src[once].tolist(), dst[once].tolist())

    @property
    def edge_count(self) -> int:
        return len(self.pairs[0]) // 2


#: The most grid cells along one axis. Wider coordinate spans get cells
#: coarser than the radius, which keeps every cell index small enough for its
#: rounding error to stay far below one cell.
_MAX_CELLS = 1 << 20

#: Cells are this much wider than the radius, so two points within the radius
#: always land in the same or adjacent cells despite rounding.
_CELL_MARGIN = 1.0 + 1e-6

#: The 3 x 3 block of cells around a point's own, as (dx, dy) offsets.
_STENCIL = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64)


def _disk_pairs(xy: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (i, j), i != j, with dx*dx + dy*dy <= radius**2.

    ``xy`` is an (n, 2) float64 array of finite coordinates, n >= 1.
    Candidates come from a cell grid, every neighbour-cell offset in one
    vectorised pass; the rule is then applied to each candidate in float64.
    Returns int64 arrays (src, dst) sorted by src, then dst.
    """
    n = len(xy)
    lo = xy.min(axis=0)
    with np.errstate(over="ignore"):
        span = xy.max(axis=0) - lo
        if np.isfinite(span).all():
            size = np.maximum(float(radius) * _CELL_MARGIN, span / _MAX_CELLS)
            cell = np.floor((xy - lo) / size).astype(np.int64) + 1
        else:  # a span past float range: one cell, every pair a candidate
            cell = np.ones(xy.shape, np.int64)
        # One id per cell of a grid padded by one cell, so no offset wraps a row.
        rows = int(cell[:, 1].max()) + 2
        cell_id = cell[:, 0] * rows + cell[:, 1]
        order = np.argsort(cell_id, kind="stable")
        by_cell = cell_id[order]

        want = (cell_id[:, None] + (_STENCIL[:, 0] * rows + _STENCIL[:, 1])).ravel()
        first = np.searchsorted(by_cell, want)
        hits = np.searchsorted(by_cell, want, side="right") - first
        src = np.repeat(np.arange(len(want)) // len(_STENCIL), hits)
        dst = order[np.arange(len(src)) + np.repeat(first - (np.cumsum(hits) - hits), hits)]

        dx = xy[src, 0] - xy[dst, 0]
        dy = xy[src, 1] - xy[dst, 1]
        keep = (dx * dx + dy * dy <= float(radius) * float(radius)) & (src != dst)
    return np.divmod(np.sort(src[keep] * n + dst[keep]), n)


def from_pairs(
    positions: Sequence[tuple[float, float]], radius: float, src: np.ndarray, dst: np.ndarray
) -> Graph:
    """Build a graph from ordered edge arrays sorted by src, then dst, each
    edge present in both directions. The graph keeps the arrays as ``pairs``."""
    pos = tuple(positions)
    bounds = [0] + np.cumsum(np.bincount(src, minlength=len(pos))).tolist()
    near = dst.tolist()
    adj = tuple(frozenset(near[a:b]) for a, b in zip(bounds, bounds[1:]))
    return Graph(len(pos), pos, float(radius), adj, (src, dst))


def unit_disk_graph(positions: Sequence[tuple[float, float]], radius: float) -> Graph:
    """Build the unit-disk graph over explicit, finite positions."""
    if not 0 < radius < math.inf:  # NaN fails too
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    pos = tuple((float(x), float(y)) for x, y in positions)
    if not pos:
        return from_pairs((), radius, np.empty(0, np.int64), np.empty(0, np.int64))
    xy = np.asarray(pos, dtype=np.float64)
    if not np.isfinite(xy).all():
        raise ValueError("positions must be finite")
    return from_pairs(pos, radius, *_disk_pairs(xy, radius))


def _check_plane(width: float, height: float) -> None:
    if not (0 < width < math.inf and 0 < height < math.inf):  # NaN fails too
        raise ValueError(f"plane dimensions must be positive and finite, got {width!r} x {height!r}")


def gen_udg(n: int, width: float, height: float, radius: float, seed: int) -> Graph:
    """Sample n node positions uniformly on a width x height plane and connect by disk."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_plane(width, height)
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
    keys = []
    for i, j in edge_list:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) outside 0..{n - 1}")
        if i == j:
            raise ValueError("self loops are not allowed")
        keys += (i * n + j, j * n + i)
    pos = tuple((float(x), float(y)) for x, y in positions)
    return from_pairs(pos, radius, *np.divmod(np.unique(np.array(keys, dtype=np.int64)), n))


def radius_for_expected_degree(n: int, width: float, height: float, degree: float) -> float:
    """Radius giving mean degree ``degree`` for n uniform nodes on the plane.

    Solves degree = pi * r^2 * (n - 1) / (width * height), the expected number
    of other nodes falling inside one disk, ignoring boundary effects.
    """
    if n < 2:
        raise ValueError("need at least two nodes for a mean degree")
    _check_plane(width, height)
    if not 0 < degree < math.inf:
        raise ValueError(f"degree must be positive and finite, got {degree!r}")
    return math.sqrt(degree * width * height / (math.pi * (n - 1)))


def _vertex_set(g: Graph, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(int(v) for v in members)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} outside 0..{g.n - 1}")
    return s


def _cover(g: Graph, s: frozenset[int]) -> set[int]:
    """The closed neighbourhood of ``s``: its members and all their neighbours."""
    cover = set(s)
    for v in s:
        cover.update(g.adj[v])
    return cover


def component(g: Graph, start: int, within: Collection[int]) -> set[int]:
    """The nodes of ``within`` that ``start``, itself in ``within``, reaches
    through edges between nodes of ``within``."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u in within and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _connected_within(g: Graph, keep: Collection[int]) -> bool:
    # Empty and singleton sets count as connected.
    return len(keep) <= 1 or len(component(g, min(keep), keep)) == len(keep)


def is_dominating(g: Graph, members: Iterable[int]) -> bool:
    """True iff every node is in the set or adjacent to a member."""
    return len(_cover(g, _vertex_set(g, members))) == g.n


def is_cds(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates g and induces a connected subgraph."""
    s = _vertex_set(g, members)
    return is_dominating(g, s) and _connected_within(g, s)


def is_wcds(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates g and the union of its closed neighborhoods
    induces a connected subgraph."""
    cover = _cover(g, _vertex_set(g, members))
    return len(cover) == g.n and _connected_within(g, cover)


def is_connected(g: Graph) -> bool:
    return _connected_within(g, frozenset(range(g.n)))


#: The exact solver's modes, each with the predicate its answer must satisfy.
MODES = {"dominating": is_dominating, "cds": is_cds, "wcds": is_wcds}


def brute_min_ds(g: Graph, mode: str) -> frozenset[int]:
    """Exhaustively find a minimum dominating / cds / wcds vertex set.

    Each candidate is checked with the mode's own predicate. Subsets are
    scanned in order of increasing size and, within one size, in
    lexicographic order of the sorted member list, so the answer is unique for
    a given graph. Graphs larger than ``EXHAUSTIVE_LIMIT`` are refused.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {tuple(MODES)}")
    if g.n > EXHAUSTIVE_LIMIT:
        raise SizeLimitError(f"graph has {g.n} nodes, exhaustive limit is {EXHAUSTIVE_LIMIT}")
    if mode in ("cds", "wcds") and not is_connected(g):
        raise InfeasibleError(f"no {mode} exists on a disconnected graph")
    holds = MODES[mode]
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if holds(g, combo):
                return frozenset(combo)
    raise InfeasibleError("exhausted all subsets")  # unreachable on valid input


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
