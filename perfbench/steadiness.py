#!/usr/bin/env python3
"""Runs each workload repeatedly and prints every metric's median and quartiles.

    python3 perfbench/steadiness.py [--workloads steady,churn] [--runs 10]
                                    [--seconds N] [--first-seed 1] [--trace 0]

Each run uses the next seed, as a comparison between two commits would. The
spread column is the interquartile range over the median (quartiles as
statistics.quantiles(values, n=4) gives them); for the end-to-end metrics it
should stay under a third of the metric's bound in BENCHMARK.json. Exits
non-zero when a run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                ["python3", os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload} ({args.runs} runs of {args.seconds} s)")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
              f" {'spread':>8s} {'bound/3':>8s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / abs(med) if med else 0.0
            limit = f"{bounds[name] / 3:8.3f}" if name in bounds else ""
            print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {spread:8.3f} {limit} {units[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
