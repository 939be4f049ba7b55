#!/usr/bin/env python3
"""Runs the benchmark the way the acceptance check does and prints the spreads.

    python3 benchmark/runset.py <out-dir> [--runs N] [--first-seed S] [--trace 0|1]
                                [--workload NAME ...]

For every workload in BENCHMARK.json it runs the declared command N times
(default ten), each time with another seed, from the repository root, and
saves each run's standard output as <out-dir>/<workload>.<seed>.json (the
form `qosr-benchmark compare <dirA> <dirB>` reads).  It then prints, per
workload and metric, the median and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, beside
the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(args.out, exist_ok=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    for workload in workloads:
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            started = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            wall = time.time() - started
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            with open(os.path.join(args.out, f"{workload}.{seed}.json"), "w") as f:
                f.write(proc.stdout)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed}: {line['failed']} of {line['attempted']} ops failed")
            results.setdefault(workload, []).append(line["metrics"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)

    print(f"{'workload':<16} {'metric':<44} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for workload, runs in results.items():
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / abs(median) * 100:.2f}%"
            else:
                spread = "-"
            bound = bounds.get(name)
            bound = f"{bound * 100:.0f}%" if bound is not None else "-"
            print(f"{workload:<16} {name:<44} {median:>14.4f} {spread:>11} {bound:>7}")


if __name__ == "__main__":
    main()
