#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload mixed_ingest --runs 10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
that median, next to the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        start = time.time()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed (exit %d):\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        print("seed %d: %.1f s, correct=%s attempted=%d failed=%d" % (
            seed, time.time() - start, result["correct"], result["attempted"],
            result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-34s %14s %8s %6s" % ("metric", "median", "iqr/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print("%-34s %14.4f %8.3f %6s%s" % (name, med, spread,
                                            "-" if bound is None else bound, flag))
        if args.verbose:
            print("    " + " ".join("%.4g" % v for v in vs))


if __name__ == "__main__":
    main()
