#!/usr/bin/env python3
"""Interleaved A/B of perfbench between a base revision and the working tree.

    python3 scripts/perf_ab.py --base HEAD~1 --workload compile --seeds 10 --seconds 3

Run it from the root of a checkout. Both sides are built the same way:
the base revision and the working tree ("head", tracked and untracked
files that .gitignore does not exclude) are exported with `git archive`
into <target-dir>/base-<sha>/tree and <target-dir>/head-<tree sha>/tree
(the repository's index and worktrees are left alone), and each tree's own
perfbench/run.py builds it into the build/ directory next to it. Runs go
in ABBA order, one pair per seed, with the same seed on both sides, so
slow drift of the host hits both sides alike.

For every metric of the workload's JSON result the report gives each
side's median and quartiles, the median of the per-seed head/base ratios
with a bootstrap 90% interval, and on how many pairs head was better
(direction from BENCHMARK.json; "?" for metrics it does not list). Failed
operations are reported as fail_frac per side. Stdlib only.

--expect turns the report into a gate on the head/base ratio (repeatable):

    --expect 'throughput>=1.3'  pass only if the 90% interval's lower end
                                is >= 1.3 ('<=' bounds the upper end)
    --expect 'op_us_p99~'       no regression: fail when the median ratio is
                                worse than the metric's BENCHMARK.json bound

Each expectation prints one line ending in pass, fail or unresolved (the
interval straddles the threshold). The script exits 1 when a '>='/'<='
expectation is not a pass or a '~' expectation is a fail.
"""

import argparse
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP_SAMPLES = 2000


def git(*args, env=None):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, env=env).stdout


def working_tree_sha(target_dir):
    """Git tree object of the working tree, written through a scratch index."""
    env = dict(os.environ, GIT_INDEX_FILE=os.path.join(target_dir, "index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def export(side, rev, target_dir):
    """Exports `rev` to <target-dir>/<side>-<sha>/tree once; returns
    (sha, tree, build dir)."""
    sha = git("rev-parse", "--verify", rev).decode().strip()
    side_dir = os.path.join(target_dir, f"{side}-{sha[:12]}")
    tree = os.path.join(side_dir, "tree")
    if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
            tar.extractall(tree)
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            sys.exit(f"perf_ab: {rev} has no perfbench/run.py")
    return sha, tree, os.path.join(side_dir, "build")


def run_once(tree, build_dir, workload, seed, seconds, log):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=log, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf_ab: run failed in {tree} (seed {seed}); see {log.name}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    attempted = result.get("attempted", 0)
    values["fail_frac"] = result.get("failed", 0) / attempted if attempted else 0
    return values


def benchmark_spec():
    """Returns ({metric: "higher"|"lower"}, {end-to-end metric: bound})."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}, {}
    better = {"fail_frac": "lower"}
    bounds = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec.get(group, []):
            better[metric["name"]] = metric["better"]
            if "bound" in metric:
                bounds[metric["name"]] = metric["bound"]
    return better, bounds


EXPECT_RE = re.compile(r"^([\w.]+)(?:(>=|<=)([0-9]*\.?[0-9]+)|(~))$")


def parse_expect(text):
    match = EXPECT_RE.match(text)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"bad --expect {text!r}: want NAME>=X, NAME<=X or NAME~")
    name, op, value, tilde = match.groups()
    return (name, tilde or op, float(value) if value else None)


def check_expectation(expect, stats, better, bounds):
    """Returns (status, detail) for one --expect against the ratio stats."""
    name, op, value = expect
    if name not in stats or stats[name] is None:
        return "fail", "no head/base ratio for this metric"
    median, lo, hi = stats[name]
    interval = f"median {median:.3f}, 90% [{lo:.3f}, {hi:.3f}]"
    if op == ">=":
        status = "pass" if lo >= value else "unresolved" if hi >= value else "fail"
        return status, f"{interval} vs >= {value:g}"
    if op == "<=":
        status = "pass" if hi <= value else "unresolved" if lo <= value else "fail"
        return status, f"{interval} vs <= {value:g}"
    if name not in bounds or name not in better:
        return "fail", "BENCHMARK.json gives this metric no bound"
    if better[name] == "higher":
        limit = 1 - bounds[name]
        worse, clear = median < limit, lo >= limit
    else:
        limit = 1 + bounds[name]
        worse, clear = median > limit, hi <= limit
    status = "fail" if worse else "pass" if clear else "unresolved"
    return status, f"{interval} vs bound {limit:.3f} ({better[name]} is better)"


def median_and_quartiles(values):
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def bootstrap_interval(ratios, rng):
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_SAMPLES))
    return (medians[int(0.05 * BOOTSTRAP_SAMPLES)],
            medians[int(0.95 * BOOTSTRAP_SAMPLES) - 1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare")
    parser.add_argument("--workload", default="compile")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=3)
    parser.add_argument("--target-dir", default=os.path.join(ROOT, ".bench_ab"))
    parser.add_argument("--expect", action="append", default=[],
                        type=parse_expect, metavar="NAME>=X|NAME<=X|NAME~",
                        help="gate the head/base ratio (see the module doc)")
    args = parser.parse_args()

    target_dir = os.path.abspath(args.target_dir)
    os.makedirs(target_dir, exist_ok=True)
    sha, base_tree, base_build = export(
        "base", args.base + "^{commit}", target_dir)
    _, head_tree, head_build = export(
        "head", working_tree_sha(target_dir), target_dir)
    log_path = os.path.join(target_dir, "perf_ab.log")
    runs = {"base": [], "head": []}
    with open(log_path, "w") as log:
        sides = {"base": (base_tree, base_build),
                 "head": (head_tree, head_build)}
        for seed in range(1, args.seeds + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                print(f"perf_ab: seed {seed} {side}", file=sys.stderr)
                runs[side].append(run_once(*sides[side], args.workload, seed,
                                           args.seconds, log))

    better, bounds = benchmark_spec()
    rng = random.Random(0)
    stats = {}
    print(f"workload {args.workload}, {args.seeds} seeds x {args.seconds} s, "
          f"ABBA; base {sha[:12]} vs head (working tree)")
    print(f"{'metric':<20} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'head/base':>10} "
          f"{'90% interval':>18} {'head better':>12}")
    for name in sorted(runs["base"][0]):
        base = [r[name] for r in runs["base"]]
        head = [r.get(name, float("nan")) for r in runs["head"]]
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        if ratios:
            lo, hi = bootstrap_interval(ratios, rng)
            stats[name] = (statistics.median(ratios), lo, hi)
            ratio = f"{stats[name][0]:.3f}"
            interval = f"[{lo:.3f}, {hi:.3f}]"
        else:
            stats[name] = None
            ratio, interval = "-", "-"
        direction = better.get(name)
        if direction is None:
            wins = "?"
        else:
            sign = 1 if direction == "higher" else -1
            won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
            wins = f"{won}/{len(base)}"
        print(f"{name:<20} {median_and_quartiles(base):>32} "
              f"{median_and_quartiles(head):>32} {ratio:>10} {interval:>18} "
              f"{wins:>12}")

    failed = False
    for expect in args.expect:
        status, detail = check_expectation(expect, stats, better, bounds)
        name, op, value = expect
        text = name + op + (f"{value:g}" if value is not None else "")
        print(f"expect {text}: {detail}: {status}")
        failed |= status == "fail" or (op != "~" and status != "pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
