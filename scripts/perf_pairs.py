#!/usr/bin/env python3
"""Runs perfbench/run.py in alternating base/change pairs and compares them.

    python3 scripts/perf_pairs.py [--base REF] [--workload serve_long ...]
        [--pairs N] [--seconds S] [--seeds 1,2,3] [--trace 0|1]
        [--work-dir DIR]

The change side is the working tree this script sits in, uncommitted edits
included. The base side is REF (default: `git merge-base HEAD main`),
exported with `git archive` into DIR/base, so the repository's own .git is
left untouched. Each side builds into its own CARGO_TARGET_DIR under DIR.

Pair i runs both sides once with the same --workload, --seconds and seed
(seeds are used round-robin); even pairs run the base first, odd pairs the
change first. For every metric the report prints each side's median with
its quartiles, the median change, and in how many pairs the change was
better, in the direction BENCHMARK.json gives for that metric. Nothing is
gated: the exit code is non-zero only when a run fails or reports
"correct": false.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export_base(ref, dest):
    """Writes the tree of `ref` to `dest` (replacing what was there)."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"perf_pairs: git archive {ref} failed")


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec.get(kind, []):
            better[m["name"]] = m["better"]
    return better


def run_side(tree, build_dir, workload, seed, seconds, trace):
    """Runs one perfbench invocation; returns its metrics {name: value}."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    result = subprocess.run(cmd, cwd=tree, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perf_pairs: {' '.join(cmd)} in {tree} exited "
                         f"{result.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"perf_pairs: {tree} reported correct=false")
    return {name: m["value"] for name, m in res["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, runs, better):
    n = len(runs)
    print(f"\n{workload}: {n} pairs  (median [q1, q3]; wins = change better)")
    print(f"  {'metric':<40} {'base':>28} {'change':>28} {'delta':>8} wins")
    for name in runs[0]["base"]:
        base = [r["base"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        bq, cq = quartiles(base), quartiles(change)
        direction = better.get(name)
        if direction is None:
            wins = "-"
        else:
            sign = 1 if direction == "higher" else -1
            wins = f"{sum(sign * (c - b) > 0 for b, c in zip(base, change))}/{n}"
        delta = (f"{100.0 * (cq[1] - bq[1]) / abs(bq[1]):+7.1f}%"
                 if bq[1] else "       -")
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"  {name:<40} {fmt(bq):>28} {fmt(cq):>28} {delta} {wins}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base ref (default: merge-base with main)")
    parser.add_argument("--workload", action="append",
                        help="workload name; repeatable (default: serve_long)")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seeds", default="1,2,3,4,5,6")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_pairs"))
    args = parser.parse_args()

    base_ref = args.base or git("merge-base", "HEAD", "main")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or ["serve_long"]
    work = os.path.abspath(args.work_dir)
    base_tree = os.path.join(work, "base")
    export_base(base_ref, base_tree)
    sides = {"base": (base_tree, os.path.join(work, "base-build")),
             "change": (ROOT, os.path.join(work, "change-build"))}
    print(f"base {git('rev-parse', '--short', base_ref)}  "
          f"change {git('rev-parse', '--short', 'HEAD')} + working tree  "
          f"seconds {args.seconds}  seeds {seeds}  trace {args.trace}")

    better = directions()
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                tree, build_dir = sides[side]
                pair[side] = run_side(tree, build_dir, workload, seed,
                                      args.seconds, args.trace)
            runs.append(pair)
            print(f"  {workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                  f"{order[0]} first) done", file=sys.stderr, flush=True)
        report(workload, runs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
