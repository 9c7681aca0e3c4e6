#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout. The build (CMake, Release) goes to
$CARGO_TARGET_DIR, default .bench_build, and is incremental; build output
goes to standard error so the last line of standard output stays the JSON
result. Traced runs (--trace 1) also write their spans as CSV next to the
build. See perfbench/main.cc for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady", "churn", "threaded", "compile")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        sys.exit("perfbench: the Gallium sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed: {err}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.csv")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
