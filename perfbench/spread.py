"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload churn_rekey --seeds 1-10 [--seconds S] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
each metric its median and the distance between the first and third quartile
as a share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound, and the output digest of every seed, so two invocations over
the same seeds can be compared for identical simulated outputs. Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    extras: dict[int, dict] = {}
    for seed in args.seeds:
        argv = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: not correct ({result['failed']} of {result['attempted']} failed)")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        path = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-seed{seed}-trace{args.trace}.json")
        with open(path, encoding="utf-8") as fh:
            extras[seed] = json.load(fh)["report"]
        line = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if "." not in n)
        print(f"seed {seed}: wall {wall:.1f}s attempted {result['attempted']} {line}", flush=True)

    print(f"\n{'metric':<40} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, share / bound)
            flag = "  over bound" if share > bound else ("  over a third" if share > bound / 3 else "")
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<40} {med:>12.6g} {share:>11.4f} {shown:>6}{flag}")
    if worst:
        print(f"\nlargest spread as a share of its bound: {worst:.2f}")
    digests = {seed: e.get("digest") for seed, e in extras.items()}
    print("digests:", json.dumps(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
