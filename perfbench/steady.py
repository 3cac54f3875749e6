#!/usr/bin/env python3
"""Steadiness mode of the repository benchmark.

Runs every workload of BENCHMARK.json N times, each with another seed, and
prints for each end-to-end metric its median, quartiles and spread (the
distance between the quartiles as a share of the median) against the
metric's bound, plus the operations attempted and failed.

    python3 perfbench/steady.py                      # all workloads, 10 runs
    python3 perfbench/steady.py --runs 5 --workloads push_large
    python3 perfbench/steady.py --runs 1             # one pass over all workloads
    python3 perfbench/steady.py --save a.json        # keep the figures
    python3 perfbench/steady.py --compare a.json b.json

`--compare` sets two saved sets of runs side by side: for each metric, how
far the second median moved from the first, in the metric's worse
direction, against its bound, and whether the failed share is the same.
Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    t = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(spec, runs_by_workload):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload, runs in runs_by_workload.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"\n== {workload}: {len(runs)} runs, correct={correct}, "
              f"attempted={attempted}, failed={failed}, "
              f"run wall {min(walls):.1f}-{max(walls):.1f}s")
        print(f"  {'metric':<16} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / m["bound"]
            flag = "" if name == "setup_s" or ratio < 1 else "  OVER BOUND"
            if flag:
                ok = False
            print(f"  {name:<16} {m['unit']:<6} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {m['bound']:>6.2f} {ratio:>12.3f}{flag}")
        ok = ok and correct
    return ok


def compare(spec, first, second):
    ok = True
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if lower else (a - b) / a
            flag = "  WORSE THAN BOUND" if worse > bound else ""
            ok = ok and not flag
            print(f"  {workload:<16} {name:<16} {a:>14.4f} -> {b:>14.4f}  "
                  f"worse by {worse:+.4f} (bound {bound}){flag}")
    for workload in first:
        share = [sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload])
                 for s in (first, second)]
        same = "same" if share[0] == share[1] else "DIFFERENT"
        ok = ok and same == "same"
        print(f"  {workload:<16} failed share {share[0]} vs {share[1]}: {same}")
    return ok


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--save", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path)
    args = ap.parse_args()

    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        sys.exit(0 if compare(spec, first, second) else 1)

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(spec, workload, seed, args.seconds, args.trace)
            runs[workload].append(r)
            figures = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} {figures}", flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1))
    if args.trace == 0:
        sys.exit(0 if summarize(spec, runs) else 1)


if __name__ == "__main__":
    main()
