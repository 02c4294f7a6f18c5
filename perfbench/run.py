"""Benchmark for the wcds simulator: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload formation_n500 --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``. Each
operation starts after the previous one has finished and been checked.

With ``--trace 0`` the run measures end-to-end metrics with nothing patched
except the capture hooks the sweep's output check needs. With ``--trace 1`` it
alternates untraced and traced passes over the same operations and reports
per-layer calls, self time, counters and the tracing overhead. Simulated
statistics, counters and the output digest cover a fixed set of reference
operations, so they repeat exactly for a seed however fast the host is.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name and unit. ``--write-spec`` regenerates ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

RUN_SECONDS = 35
SETUP_REPEATS = 3

#: name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("dominator_frac", "ratio", "lower", 0.2),
)

#: Reported with every run but not gated: they can be 0, exist on one workload
#: only, or vary more from run to run than any bound allows.
REPORTED = {
    "op_p50_s": "s",
    "sim_rounds_per_op": "count",
    "sim_tx_per_sensor": "count",
    "op_p90_s": "s",
    "op_samples": "count",
    "failed_frac": "ratio",
    "verified_frac": "ratio",
    "unresolved_frac": "ratio",
    "ds_size_ratio": "ratio",
    "epochs_past_3_rounds": "count",
    "dominators_added": "count",
    "promote_cmds": "count",
}

P90_MIN_SAMPLES = 100


def _load_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "wcds", "__init__.py")):
        sys.exit(f"error: no wcds package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import wcds

    if not os.path.abspath(wcds.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported wcds from {wcds.__file__}, not from {SRC}")


def per_layer_spec():
    from tracing import COUNTERS, TRACED_NAMES

    spec = []
    for name in TRACED_NAMES:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    spec.extend(COUNTERS)
    spec.append(("bench.trace_overhead", "ratio", "lower"))
    return spec


# ---------------------------------------------------------------- set-up time


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from process start until a fresh process has its inputs.

    Each repeat starts this script as a new interpreter that imports the
    program, builds the workload's inputs and reports ready.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------- operations


def run_op(wl, instrument, desc):
    """Begin, time and check one operation. Returns (seconds, stats or None)."""
    from workloads import CheckFailed

    ctx = wl.begin(desc)
    with instrument.active(), instrument.span(f"bench.{wl.name}.op"):
        t0 = time.perf_counter()
        try:
            result = wl.run(ctx)
        except Exception as exc:  # an operation that raises is a failed operation
            print(f"op {desc!r} raised {exc!r}", file=sys.stderr)
            return time.perf_counter() - t0, None
        elapsed = time.perf_counter() - t0
    try:
        return elapsed, wl.check(ctx, result)
    except (CheckFailed, KeyError, ValueError, TypeError) as exc:
        print(f"op {desc!r} failed its check: {exc!r}", file=sys.stderr)
        return elapsed, None


def sim_metrics(wl, records) -> dict:
    """Simulated statistics over the reference operations, and their digest."""
    ok = [r for r in records if r is not None]
    if not ok:
        return {}
    digest = hashlib.sha256()
    for r in ok:
        digest.update(hashlib.sha256(r["digest_part"]).digest())
    sensors = sum(r["sensors"] for r in ok)
    ordinary = sum(r["ordinary"] for r in ok)
    out = {
        "sim_rounds_per_op": sum(r["rounds"] for r in ok) / len(ok),
        "sim_tx_per_sensor": sum(r["tx"] for r in ok) / sensors,
        "dominator_frac": sum(r["dominators"] for r in ok) / sensors,
        "verified_frac": sum(bool(r["verified"]) for r in ok) / len(ok),
        "unresolved_frac": sum(r["unresolved"] for r in ok) / ordinary,
        "digest": "sha256:" + digest.hexdigest(),
    }
    if "alg2" in ok[0]:
        out["ds_size_ratio"] = sum(r["dominators"] for r in ok) / sum(r["alg2"] for r in ok)
    if "promotions" in ok[0]:
        out["epochs_past_3_rounds"] = sum(r["rounds"] > 3 for r in ok)
        out["dominators_added"] = sum(r["added"] for r in ok)
        out["promote_cmds"] = sum(r["promotions"] for r in ok)
    return out


def run_untraced(wl, seconds: float, instrument) -> tuple[dict, int, int]:
    """Operations until ``seconds`` have passed and the reference set is done."""
    times, records = [], []
    attempted = failed = 0
    peak_rss_mb = None
    inputs = wl.inputs()
    start = time.perf_counter()
    while attempted < wl.ref_ops or time.perf_counter() - start < seconds:
        elapsed, stats = run_op(wl, instrument, next(inputs))
        attempted += 1
        if stats is None:
            failed += 1
        else:
            times.append(elapsed)
        if attempted <= wl.ref_ops:
            records.append(stats)
        if attempted == wl.ref_ops:
            # The peak over set-up and the reference operations: later
            # operations depend on host speed, and would let a faster
            # program read as a larger one.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = sim_metrics(wl, records)
    if times:
        metrics["ops_per_s"] = len(times) / sum(times)
        metrics["op_p50_s"] = statistics.median(times)
        if len(times) >= P90_MIN_SAMPLES:
            metrics["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["op_samples"] = len(times)
    metrics["failed_frac"] = failed / attempted
    return metrics, attempted, failed


def run_pass(wl, instrument):
    """The first ``trace_ops`` operations from a fresh input sequence."""
    inputs = wl.inputs()
    total = 0.0
    records = []
    for _ in range(wl.trace_ops):
        elapsed, stats = run_op(wl, instrument, next(inputs))
        total += elapsed
        records.append(stats)
    return total, records


def run_traced(wl, seconds: float, capture) -> tuple[dict, dict, bool, int, int]:
    """Alternate untraced and traced passes; per-layer figures from the traced ones."""
    from tracing import COUNTERS, TRACED_NAMES, Instrument

    plain = Instrument(tracing=False, capture=capture)
    traced = Instrument(tracing=True, capture=capture)
    plain_times, traced_times, self_times = [], [], {n: [] for n in TRACED_NAMES}
    first_calls = first_counters = first_digest = None
    repeat_ok = True
    attempted = failed = 0
    start = time.perf_counter()
    while not traced_times or time.perf_counter() - start < seconds:
        t_plain, plain_records = run_pass(wl, plain)
        traced.counters.clear()
        first_span = traced.span_count()
        t_traced, traced_records = run_pass(wl, traced)
        plain_times.append(t_plain)
        traced_times.append(t_traced)
        for records in (plain_records, traced_records):
            attempted += len(records)
            failed += sum(r is None for r in records)
        agg = traced.aggregate(first_span)
        calls = {n: agg.get(n, (0, 0.0))[0] for n in TRACED_NAMES}
        for n in TRACED_NAMES:
            self_times[n].append(agg.get(n, (0, 0.0))[1])
        counters = traced.counter_values()
        digests = {sim_metrics(wl, plain_records).get("digest"), sim_metrics(wl, traced_records).get("digest")}
        if first_calls is None:
            first_calls, first_counters, first_digest = calls, counters, digests
        elif (calls, counters, digests) != (first_calls, first_counters, first_digest):
            repeat_ok = False
        if len(digests) != 1:
            repeat_ok = False
    metrics = {}
    for n in TRACED_NAMES:
        metrics[f"{n}.calls"] = float(first_calls[n])
        metrics[f"{n}.self_s"] = statistics.median(self_times[n])
    for name, _, _ in COUNTERS:
        metrics[name] = first_counters[name]
    metrics["bench.trace_overhead"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    traced.write_spans(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.npz"))
    report = {"digest": sorted(first_digest)[0]} if len(first_digest) == 1 else {}
    return metrics, report, repeat_ok, attempted, failed


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def write_spec() -> None:
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_spec()],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    _load_program()
    from workloads import WORKLOADS

    if args.write_spec:
        write_spec()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload]()

    if args.setup_probe:
        wl.prepare(args.seed, OUT_DIR)
        print("ready", flush=True)
        return 0

    from tracing import Instrument

    setup_s = measure_setup(wl.name, args.seed) if not args.trace else None
    wl.prepare(args.seed, OUT_DIR)
    capture = wl.capture_hooks() if hasattr(wl, "capture_hooks") else {}

    if args.trace:
        metrics, extra, repeat_ok, attempted, failed = run_traced(wl, args.seconds, capture)
        spec = per_layer_spec()
        correct = repeat_ok and failed == 0
    else:
        report, attempted, failed = run_untraced(wl, args.seconds, Instrument(False, capture))
        report["setup_s"] = setup_s
        spec = [(n, u, b) for n, u, b, _ in END_TO_END]
        metrics = {n: report[n] for n, _, _ in spec if n in report}
        extra = {k: v for k, v in report.items() if k not in metrics}
        correct = failed == 0 and len(metrics) == len(spec)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  correct {correct}")
    units = {n: u for n, u, *_ in spec}
    for name, value in metrics.items():
        print(f"  {name:<40} {_fmt(value):>14} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:<40} {_fmt(value):>14} {REPORTED.get(name, '')}".rstrip())

    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"metrics": metrics, "report": extra, "attempted": attempted, "failed": failed,
                   "correct": correct}, fh, indent=2, sort_keys=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
