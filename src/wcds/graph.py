"""Unit-disk graphs on the plane, dominating-set predicates, and an exact solver.

Nodes are integers 0..n-1 with fixed double-precision positions. All randomness
flows through explicit seeds, so identical inputs rebuild identical graphs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

EXHAUSTIVE_LIMIT = 14


class SizeLimitError(ValueError):
    """Graph too large for exhaustive subset search."""


class InfeasibleError(ValueError):
    """No vertex set with the requested property exists for this graph."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with planar positions and a shared radio radius.

    The unit-disk constructors create an edge (i, j), i != j, exactly when
    dist(i, j) <= radius, decided on squared distances with no tolerance.
    ``from_edges`` builds arbitrary adjacency for parsers and tests; the
    geometric rule is guaranteed only for gen_udg / unit_disk_graph output.
    Two graphs are equal when their node counts, positions, radii and edges
    are.
    """

    n: int
    positions: tuple[tuple[float, float], ...]
    radius: float
    #: The edges as int64 arrays, each edge in both directions, sorted by
    #: src then dst.
    pairs: tuple[np.ndarray, np.ndarray] = field(repr=False)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Each node's neighbours, built from ``pairs`` on first use."""
        src, dst = self.pairs
        bounds = [0] + np.cumsum(np.bincount(src, minlength=self.n)).tolist()
        near = dst.tolist()
        return tuple(frozenset(near[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            (self.n, self.positions, self.radius) == (other.n, other.positions, other.radius)
            and np.array_equal(self.pairs[0], other.pairs[0])
            and np.array_equal(self.pairs[1], other.pairs[1])
        )

    def __hash__(self) -> int:
        return hash((self.n, self.positions, self.radius, self.edge_count))

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


def _disk_graph(pos: tuple[tuple[float, float], ...], xy: np.ndarray, radius: float) -> Graph:
    """The unit-disk graph over ``pos``, also given as an (n, 2) float64 array.

    With the points sorted by cell, each unordered pair is tested once, in
    that order: point p meets the rest of its own cell with the cell above,
    and the next column's three cells. One float64 test, dx*dx + dy*dy <=
    radius**2, decides both directions, as float subtraction is exact under
    negation; the pairs are then mirrored, which equals the pairwise rule.
    """
    if not 0 < radius < math.inf:  # NaN fails too
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if not np.isfinite(xy).all():
        raise ValueError("positions must be finite")
    n = len(pos)
    if not n:
        return Graph(0, (), float(radius), (np.empty(0, np.int64), np.empty(0, np.int64)))
    lo = np.array([c.min() for c in xy.T])  # column by column: an axis-0 reduction is slower
    with np.errstate(over="ignore"):
        span = np.array([c.max() for c in xy.T]) - lo
        if np.isfinite(span).all():
            size = np.maximum(float(radius) * _CELL_MARGIN, span / _MAX_CELLS)
            cell = np.floor((xy - lo) / size).astype(np.int64) + 1
        else:  # a span past float range: one cell, every pair a candidate
            cell = np.ones(xy.shape, np.int64)
        # One id per cell of a grid padded by one cell, so the cell above is the
        # next id and the next column's three cells are consecutive ids.
        rows = int(cell[:, 1].max()) + 2
        cell_id = cell[:, 0] * rows + cell[:, 1]
        order = np.argsort(cell_id)
        by_cell = cell_id[order]
        x, y = xy[order].T

        here = np.arange(n)
        start = np.concatenate((here + 1, np.searchsorted(by_cell, by_cell + (rows - 1))))
        stop = np.searchsorted(by_cell, np.concatenate((by_cell + 1, by_cell + (rows + 1))), side="right")
        hits = stop - start
        a = np.repeat(np.concatenate((here, here)), hits)
        b = np.arange(len(a)) + np.repeat(start - (np.cumsum(hits) - hits), hits)

        dx = x[a] - x[b]
        dy = y[a] - y[b]
        hit = np.flatnonzero(dx * dx + dy * dy <= float(radius) * float(radius))
    i, j = order[a[hit]], order[b[hit]]
    keys = np.sort(np.concatenate((i * n + j, j * n + i)))
    src = keys // n
    return Graph(n, pos, float(radius), (src, keys - src * n))


def unit_disk_graph(positions: Sequence[tuple[float, float]], radius: float) -> Graph:
    """Build the unit-disk graph over explicit, finite positions."""
    pos = tuple((float(x), float(y)) for x, y in positions)
    return _disk_graph(pos, np.array(pos, dtype=np.float64).reshape(-1, 2), radius)


def _check_plane(width: float, height: float) -> None:
    if not (0 < width < math.inf and 0 < height < math.inf):  # NaN fails too
        raise ValueError(f"plane dimensions must be positive and finite, got {width!r} x {height!r}")


def gen_udg(n: int, width: float, height: float, radius: float, seed: int) -> Graph:
    """Sample n node positions uniformly on a width x height plane and connect by disk.

    Draws 2i and 2i + 1 of ``random.Random(seed).random``, scaled by (width,
    height) in one float64 array, place node i where ``uniform(0.0, width)``
    and ``uniform(0.0, height)`` would. The pairs come from that array as in
    ``unit_disk_graph``: each tested once, then mirrored, equal to the pairwise rule.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_plane(width, height)
    draw = random.Random(seed).random
    xy = np.array([draw() for _ in range(2 * n)]).reshape(n, 2) * (float(width), float(height))
    return _disk_graph(tuple(map(tuple, xy.tolist())), xy, radius)


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
    return Graph(n, pos, float(radius), np.divmod(np.unique(np.array(keys, dtype=np.int64)), n))


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


def _mask(g: Graph, members: Iterable[int]) -> np.ndarray:
    """The boolean node mask of ``members``. Each id must name a node of g:
    numpy would wrap a negative index silently."""
    ids = members if isinstance(members, np.ndarray) else list(members)
    try:
        ids = np.asarray(ids, dtype=np.int64)
    except OverflowError:  # an id past int64, the largest in size, names no node
        raise ValueError(f"node {max(ids, key=abs)} outside 0..{g.n - 1}") from None
    bad = np.flatnonzero((ids < 0) | (ids >= g.n))
    if len(bad):
        raise ValueError(f"node {ids[bad[0]]} outside 0..{g.n - 1}")
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return mask


def components(g: Graph, within: np.ndarray | None = None) -> np.ndarray:
    """Label each node with the smallest id of its component in the subgraph
    that the boolean node mask ``within`` induces, or in g itself when it is
    None; a node outside the mask is its own component.

    Runs on the edge arrays. Every node carries a label, at first its own id.
    Each round, every label takes the smallest label found across an edge
    from a node that carries it, then each node's label jumps to its label's
    label until none changes. A label only falls and always names a node of
    the same component, so when a round changes nothing every node carries
    the smallest id of its component.
    """
    src, dst = g.pairs
    if within is not None:
        both = within[src] & within[dst]
        src, dst = src[both], dst[both]
    label = np.arange(g.n)
    while label.any():
        low = label.copy()
        np.minimum.at(low, label[src], label[dst])
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped
        if np.array_equal(low, label):
            break
        label = low
    return label


def _covers(g: Graph, mask: np.ndarray) -> bool:
    """True iff the nodes of ``mask`` and their neighbours are every node."""
    src, dst = g.pairs
    covered = mask.copy()
    covered[dst[mask[src]]] = True
    return bool(covered.all())


def is_dominating(g: Graph, members: Iterable[int]) -> bool:
    """True iff every node is in the set or adjacent to a member."""
    return _covers(g, _mask(g, members))


def is_cds(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates g and induces a connected subgraph."""
    s = _mask(g, members)
    return _covers(g, s) and len(set(components(g, s)[s].tolist())) <= 1


def is_wcds(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates g and the union of its closed neighborhoods
    induces a connected subgraph. The closed neighbourhood of a dominating
    set is every node, so that union is g itself."""
    return is_dominating(g, members) and is_connected(g)


def is_connected(g: Graph) -> bool:
    """True iff every node reaches every other; graphs of at most one node
    count as connected.

    Runs on the edge arrays, so a split draw is rejected without building
    ``adj``: too few edges or an isolated node settle it at once, and
    otherwise every node must carry label 0 in ``components``.
    """
    n = g.n
    if n <= 1:
        return True
    src, dst = g.pairs
    if len(src) < 2 * (n - 1) or not np.bincount(src, minlength=n).all():
        return False  # fewer than n - 1 edges, or an isolated node
    return not components(g).any()


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
