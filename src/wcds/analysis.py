"""Closed-form curves and the measured-versus-baseline comparison sweep.

Everything here is either an exact formula or a seeded, reproducible
experiment; emitters produce plain CSV for whatever plotting tool the reader
prefers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .baselines import cds_alg1, cds_alg2
from .graph import gen_udg, is_connected, radius_for_expected_degree
from .sim import assemble_outcome, form_deployment

CSV_HEADER = ("experiment", "n", "degree", "eta", "seed", "method", "value")

#: Method-column vocabulary. Fixed strings, part of the file format.
METHOD_OURS = "ours"
METHOD_IDEAL = "ideal_eq2"
METHOD_ALG1 = "cds_alg1"
METHOD_ALG2 = "cds_alg2"
METHOD_KEYS = "keys"
METHOD_GD_BITS = "gd_bits"
METHOD_ER_DEGREE = "er_degree"

#: Seed column value for analytic rows that involve no randomness.
ANALYTIC_SEED = -1


@dataclass(frozen=True)
class CsvRow:
    experiment: str
    n: int
    degree: float
    eta: int
    seed: int
    method: str
    value: float


def ideal_ds_size(n: int, eta: int) -> int:
    """Dominator count when every group is as full as allowed."""
    if n < 0 or eta < 0:
        raise ValueError("n and eta must be non-negative")
    return math.ceil(n / (eta + 1))


def er_threshold_p(n: int, pc: float) -> float:
    """Edge probability at which a random graph on n vertices is connected
    with probability pc, clamped to [0, 1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < pc < 1.0:
        raise ValueError("pc must lie strictly between 0 and 1")
    p = (math.log(n) - math.log(-math.log(pc))) / n
    return min(max(p, 0.0), 1.0)


def expected_gd_degree(n: int, pc: float) -> float:
    """Expected links per dominator when the dominator overlay stays
    connected with probability pc."""
    return er_threshold_p(n, pc) * (n - 1)


def distinct_key_curve(sizes: Iterable[int], eta: int) -> list[CsvRow]:
    """Distinct keys the whole deployment needs, one row per network size n.

    Each group contributes one group key and each ordinary sensor one
    individual key, so the count is alpha + beta = n: exactly linear.
    """
    rows = []
    experiment = f"distinct_keys_eta{eta}"
    for n in sizes:
        alpha = ideal_ds_size(n, eta)
        beta = n - alpha
        rows.append(CsvRow(experiment, n, 0.0, eta, ANALYTIC_SEED, METHOD_KEYS, float(alpha + beta)))
    return rows


def gd_storage_curve(etas: Iterable[int], key_bits_list: Iterable[int]) -> list[CsvRow]:
    """Dominator key storage in bits, one experiment per key width; the
    group size eta fills both the n and the eta column."""
    rows = []
    for k in key_bits_list:
        if k <= 0:
            raise ValueError("key width must be positive")
        experiment = f"gd_bits_k{k}"
        for eta in etas:
            if eta < 0:
                raise ValueError("eta must be non-negative")
            rows.append(CsvRow(experiment, eta, 0.0, eta, ANALYTIC_SEED, METHOD_GD_BITS, float((eta + 1) * k)))
    return rows


def er_degree_curve(ns: Iterable[int], pcs: Iterable[float]) -> list[CsvRow]:
    """Expected dominator degree versus overlay size n, one experiment per pc."""
    rows = []
    for pc in pcs:
        experiment = f"er_degree_pc{pc:g}"
        for n in ns:
            rows.append(CsvRow(experiment, n, 0.0, 0, ANALYTIC_SEED, METHOD_ER_DEGREE, expected_gd_degree(n, pc)))
    return rows


def _format_value(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def write_csv(path: str, rows: Iterable[CsvRow]) -> None:
    """One experiment per file: UTF-8, LF endings, mandatory header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                (r.experiment, r.n, _format_value(r.degree), r.eta, r.seed, r.method, _format_value(r.value))
            )


@dataclass(frozen=True)
class CompareReport:
    """Output of one comparison sweep.

    ``missing`` lists (n, seed) points dropped after the connectivity retry
    budget ran out; their values are absent rather than invented.
    """

    rows: tuple[CsvRow, ...]
    retries: int
    missing: tuple[tuple[int, int], ...]

    def mean(self, method: str, n: int) -> float | None:
        vals = [r.value for r in self.rows if r.method == method and r.n == n]
        if not vals:
            return None
        return sum(vals) / len(vals)


def compare_ds_sizes(
    ns: Sequence[int],
    degree: float,
    eta: int = 9,
    seeds: Sequence[int] = tuple(range(30)),
    width: float = 100.0,
    height: float = 100.0,
    retry_budget: int = 500,
) -> CompareReport:
    """Dominating-set sizes of the greedy baselines against a full protocol run.

    For each (n, seed): the baselines get a connected uniform unit-disk graph
    at the radius matching the requested expected degree (redrawing with a
    derived seed when disconnected, counting retries); our size is the
    dominator count of a clustered deployment simulated over the same area
    and radius, promotions included. Ideal rows carry the analytic seed.
    """
    if retry_budget < 0:
        raise ValueError("need --retry-budget >= 0")
    experiment = f"compare_deg{degree:g}"
    rows: list[CsvRow] = []
    retries = 0
    missing: list[tuple[int, int]] = []
    for n in ns:
        radius = radius_for_expected_degree(n, width, height, degree)
        rows.append(
            CsvRow(experiment, n, degree, eta, ANALYTIC_SEED, METHOD_IDEAL, float(ideal_ds_size(n, eta)))
        )
        for seed in seeds:
            g = None
            for attempt in range(retry_budget + 1):
                cand = gen_udg(n, width, height, radius, seed + 1_000_003 * attempt)
                if is_connected(cand):
                    g = cand
                    break
                retries += 1
            if g is None:
                missing.append((n, seed))
                continue
            s1 = cds_alg1(g)
            s2 = cds_alg2(g)
            world = form_deployment(n, eta, width, height, radius, seed=seed)
            ours = len(assemble_outcome(world).dominator_set)
            rows.append(CsvRow(experiment, n, degree, eta, seed, METHOD_ALG1, float(len(s1))))
            rows.append(CsvRow(experiment, n, degree, eta, seed, METHOD_ALG2, float(len(s2))))
            rows.append(CsvRow(experiment, n, degree, eta, seed, METHOD_OURS, float(ours)))
    return CompareReport(tuple(rows), retries, tuple(missing))
