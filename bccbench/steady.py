#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs one workload k times (seeds 1..k, one per run) and prints, for every
end-to-end metric, the median, the quartiles and the relative spread
(q3 - q1) / median next to the metric's bound. With --sets 2 it repeats
the k runs on the next k seeds and checks that the two medians differ by
no more than the bound, either way, which is how the bounds were set and
how two sets of runs are shown to agree. Exits 1 if a spread or a change
exceeds its bound.

Run from the repository root:

    python3 bccbench/steady.py --workload road_churn --runs 5
    python3 bccbench/steady.py --workload chain --runs 10 --sets 2
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time


BENCH = "BENCHMARK.json"
FIRST_SEED = 1


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result["metrics"], wall


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_set(bench, workload, seeds):
    cmd = bench["command"]
    per_metric = {}
    for seed in seeds:
        metrics, wall = run_once(cmd, workload, seed, bench["run_seconds"])
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        shown = "  ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items())
        print(f"  seed {seed:>4}  wall {wall:5.1f}s  max rss {rss_mb:6.0f} MB  {shown}",
              flush=True)
        for name, m in metrics.items():
            per_metric.setdefault(name, []).append(m["value"])
    return per_metric


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    with open(BENCH) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    medians = []
    ok = True
    for s in range(args.sets):
        seeds = [FIRST_SEED + s * args.runs + i for i in range(args.runs)]
        print(f"set {s + 1}: {args.workload}, seeds {seeds[0]}..{seeds[-1]}", flush=True)
        per_metric = one_set(bench, args.workload, seeds)
        if args.runs < 2:
            continue
        set_medians = {}
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'spread/bound':>12}")
        for name, values in per_metric.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bound:6.3f} {spread / bound:12.3f}{flag}")
            set_medians[name] = med
        medians.append(set_medians)

    if len(medians) == 2:
        print("set 2 against set 1 (change of the median, positive = worse):")
        for name, first in medians[0].items():
            second = medians[1][name]
            worse = bounds[name]["better"] == "lower"
            change = (second - first) / first if worse else (first - second) / first
            bound = bounds[name]["bound"]
            flag = ""
            if abs(change) > bound:
                flag, ok = "  DIFFERS BY MORE THAN THE BOUND", False
            print(f"  {name:<14} {first:12.6g} -> {second:12.6g}  {change:+.4f} "
                  f"(bound {bound}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
