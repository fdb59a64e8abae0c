#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload market_feed --seeds 1-10 [--trace 1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.  Run it from the
root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        for line in out.splitlines()[:-1]:
            if line.startswith("#"):
                print(line, file=sys.stderr)
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}: {len(args.seeds)} runs")
    print(f"{'metric':36} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:36} {med:12.4f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
