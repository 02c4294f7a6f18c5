"""Command-line front end.

Subcommands: ``gen`` writes a unit-disk graph file, ``sim`` runs one
configured deployment to an outcome JSON (plus an optional event trace),
``compare`` sweeps our dominator counts against the greedy baselines into
CSV and prints the per-n means, ``curves`` emits the closed-form curve
families, ``storage`` prints the key-storage figures, and ``trace``
pretty-prints an event log.

Every command takes --seed; when absent, the WCDS_SEED environment variable
and then zero fill in. Exit codes: 0 success, 1 usage, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict, replace

from .analysis import (
    METHOD_ALG1,
    METHOD_ALG2,
    METHOD_IDEAL,
    METHOD_OURS,
    compare_ds_sizes,
    distinct_key_curve,
    er_degree_curve,
    gd_storage_curve,
    write_csv,
)
from .graph import gen_udg, radius_for_expected_degree, write_graph
from .keys import uniform_storage_bits
from .sim import RunConfig, simulate

ENV_SEED = "WCDS_SEED"


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_seed(flag_value: int | None, explicit: int | None = None) -> int:
    """Seed precedence: --seed flag, then a value written in the config file,
    then $WCDS_SEED, then zero."""
    if flag_value is not None:
        return flag_value
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}")
    return 0


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $WCDS_SEED or 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="wcds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a unit-disk graph file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--width", type=float, default=100.0)
    p.add_argument("--height", type=float, default=100.0)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--degree", type=float, default=None, help="target expected degree instead of --radius")
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sim", help="run one deployment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="outcome JSON path (default: stdout)")
    p.add_argument("--trace", default=None, help="also write a JSON-lines event trace here")
    _add_seed(p)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("compare", help="sweep dominating-set sizes against the greedy baselines")
    p.add_argument("--nmin", type=int, default=20)
    p.add_argument("--nmax", type=int, default=200)
    p.add_argument("--step", type=int, default=20)
    p.add_argument("--degree", type=float, default=6.0)
    p.add_argument("--eta", type=int, default=9)
    p.add_argument("--seeds", type=int, default=30, help="number of seeds per point")
    p.add_argument("--width", type=float, default=100.0)
    p.add_argument("--height", type=float, default=100.0)
    p.add_argument("--retry-budget", type=int, default=500)
    p.add_argument("--out", required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("curves", help="emit the closed-form curve CSVs")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--eta", type=int, default=9, help="group size for the key-count curve")
    p.add_argument("--eta-max", type=int, default=30, help="largest group size for the storage curve")
    p.add_argument("--kbits", type=int, action="append", default=None, help="key widths (repeatable)")
    p.add_argument("--pc", type=float, action="append", default=None, help="connectivity targets (repeatable)")
    _add_seed(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("storage", help="print key-storage figures for a uniform deployment")
    p.add_argument("--alpha", type=int, required=True, help="group count")
    p.add_argument("--beta", type=int, required=True, help="ordinary-sensor count")
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--k", type=int, default=128, help="key width in bits")
    _add_seed(p)
    p.set_defaults(func=_cmd_storage)

    p = sub.add_parser("trace", help="pretty-print a JSON-lines event trace")
    p.add_argument("path")
    _add_seed(p)
    p.set_defaults(func=_cmd_trace)

    return parser


def _cmd_gen(args) -> int:
    if (args.radius is None) == (args.degree is None):
        raise ValueError("give exactly one of --radius or --degree")
    seed = _resolve_seed(args.seed)
    radius = (
        args.radius
        if args.radius is not None
        else radius_for_expected_degree(args.n, args.width, args.height, args.degree)
    )
    g = gen_udg(args.n, args.width, args.height, radius, seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_graph(g, fh)
    print(f"wrote {args.out}: n={g.n} edges={g.edge_count} radius={radius:.6g}")
    return 0


def _cmd_sim(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = RunConfig.from_dict(raw)
    config = replace(config, seed=_resolve_seed(args.seed, explicit=raw.get("seed")))
    world, outcome, report = simulate(config)
    doc = {
        "config": dict(sorted(config.__dict__.items())),
        "rounds": world.round,
        "outcome": outcome.to_dict(),
        "verify": asdict(report),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    status = sys.stderr if args.out is None else sys.stdout  # stdout holds the document alone
    # Every output is opened, the trace first, before any is written, so a
    # bad path writes nothing: a trace opened ahead of a bad --out is removed.
    with _opened(args.trace) as trace:
        try:
            opened_out = _opened(args.out)
        except OSError:
            if trace is not None:
                trace.close()
                os.remove(args.trace)
            raise
        with opened_out as out:
            (out or sys.stdout).write(text)
            if out is not None:
                print(f"wrote {args.out}")
            if trace is not None:
                _write_trace(trace, world.events)
                print(f"wrote {args.trace}", file=status)
    return 0


def _opened(path: str | None):
    """``path`` opened for writing text, or a context holding None."""
    return contextlib.nullcontext() if path is None else open(path, "w", encoding="utf-8", newline="")


#: Events per ``json.dumps`` call in a trace: a batch encodes as fast as the
#: whole trace at once, and holds only its own pieces while it does.
_TRACE_BATCH = 512


def _write_trace(fh, events: list[dict]) -> None:
    """Write ``events`` as the lines ``json.dumps(event, sort_keys=True)``,
    one encoder pass per batch. Each event's first sorted key is "detail" and
    strings escape ``"``, so each ``, {"detail": `` in a list starts an event;
    a line count that disagrees (a nested object so shaped) raises ValueError."""
    for start in range(0, len(events), _TRACE_BATCH):
        batch = events[start : start + _TRACE_BATCH]
        lines = json.dumps(batch, sort_keys=True)[1:-1].replace('}, {"detail": ', '}\n{"detail": ') + "\n"
        if lines.count("\n") != len(batch):
            raise ValueError("trace events did not split into one line each")
        fh.write(lines)


def _cmd_compare(args) -> int:
    if args.step <= 0 or args.nmin <= 0 or args.nmax < args.nmin:
        raise ValueError("need nmin > 0, step > 0, nmax >= nmin")
    if args.seeds <= 0:
        raise ValueError("need at least one seed")
    base = _resolve_seed(args.seed)
    ns = list(range(args.nmin, args.nmax + 1, args.step))
    report = compare_ds_sizes(
        ns,
        args.degree,
        eta=args.eta,
        seeds=[base + i for i in range(args.seeds)],
        width=args.width,
        height=args.height,
        retry_budget=args.retry_budget,
    )
    write_csv(args.out, report.rows)
    print(f"wrote {args.out}: {len(report.rows)} rows, {report.retries} retries")
    methods = (METHOD_IDEAL, METHOD_OURS, METHOD_ALG1, METHOD_ALG2)
    print(f"{'n':>5}" + "".join(f" {m:>9}" for m in methods))
    for n in ns:
        means = [report.mean(m, n) for m in methods]
        print(f"{n:>5}" + "".join(f" {'-' if v is None else f'{v:.2f}':>9}" for v in means))
    if report.missing:
        print(f"error: {len(report.missing)} points exhausted the retry budget", file=sys.stderr)
        return 2
    return 0


def _cmd_curves(args) -> int:
    if args.eta_max < 0:
        raise ValueError("need --eta-max >= 0")
    kbits = args.kbits or [64, 128, 256]
    pcs = args.pc or [0.9, 0.99, 0.999]
    out = args.out_dir
    # Every curve is computed before any file is written, so a bad value leaves no files.
    curves = {
        "distinct_keys.csv": distinct_key_curve(range(0, 201, 5), args.eta),
        "gd_storage.csv": gd_storage_curve(range(0, args.eta_max + 1), kbits),
        "er_degree.csv": er_degree_curve(range(20, 201, 10), pcs),
    }
    os.makedirs(out, exist_ok=True)
    for name, rows in curves.items():
        write_csv(os.path.join(out, name), rows)
    print(f"wrote {', '.join(curves)} under {out}")
    return 0


def _cmd_storage(args) -> int:
    report = uniform_storage_bits(args.alpha, args.beta, args.eta, args.k)
    per_gd = report.per_gd[0] if report.per_gd else 0
    print(f"per_gd_bits={per_gd}")
    print(f"per_os_bits={report.per_os}")
    print(f"total_bits={report.total}")
    return 0


def _cmd_trace(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            who = "BS" if event.get("node") == -1 else str(event.get("node"))
            detail = " ".join(f"{k}={v}" for k, v in sorted(event.get("detail", {}).items()))
            print(f"round {event.get('round', '?'):>3}  node {who:>4}  {event.get('event', '?')}  {detail}".rstrip())
    return 0


@functools.cache
def _parser() -> _Parser:
    """``main``'s parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
