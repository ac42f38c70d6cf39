#!/usr/bin/env python3
"""Runs a benchmark in alternating base/change pairs and gates the change.

    python3 scripts/perf_pairs.py [--base REF] [--workload NAME ...]
        [--pairs N] [--seconds S] [--seeds 1,2,3] [--trace 0|1]
        [--work-dir DIR]
    python3 scripts/perf_pairs.py --selftest

The change side is the working tree this script sits in, uncommitted edits
included. The base side is REF (default: `git merge-base HEAD main`),
exported with `git archive` into DIR/base, so the repository's own .git is
left untouched. Each side builds into its own directories under DIR, and
every build and run writes its stderr to a log under DIR/runs.

A workload is either a perfbench workload (perfbench/run.py with --seconds,
--trace and a seed; seeds are used round-robin) or `kernels`: bench_kernels
--smoke, built in Release and run on a one-thread kernel pool pinned to one
CPU, whose metrics are each benchmark's real time in ns per iteration.

Pair i runs both sides once; even pairs run the base first, odd pairs the
change first. For every metric the report prints each side's median with
its quartiles, the median change, in how many pairs the change was better
and a verdict. A metric FAILs when the change's median is worse than the
base's q3 (q1 when higher is better) by more than its bound: BENCHMARK.json's
bound for an end-to-end metric, KERNEL_BOUND for a kernel's ns/op. Per-layer
metrics are reported, never gated. The exit code is 1 when any metric fails;
a failed build or run, or a perfbench run reporting "correct": false, stops
the script with the tail of that run's log.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Bound on a kernel's ns/op. Three null runs (base = HEAD, clean tree, 10
# pinned pairs each on a 4-vCPU Xeon, AVX2) put every smoke benchmark's
# change median at most 6.1% above the base's q3, while medians alone moved
# by up to 40%; 0.25 leaves room for the host's per-process speed regimes
# and still fails a kernel that does its work twice.
KERNEL_BOUND = 0.25

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


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


def benchmark_gates():
    """Metric name -> (better, bound) from BENCHMARK.json; bound None for
    per-layer metrics, which are reported but never gated."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    gates = {m["name"]: (m["better"], None) for m in spec["per_layer"]}
    gates.update({m["name"]: (m["better"], m["bound"])
                  for m in spec["end_to_end"]})
    return gates


def log_tail(log, lines=20):
    with open(log, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def run_logged(cmd, log, **kwargs):
    """Runs `cmd` with its stderr in `log`; returns its stdout. A non-zero
    exit stops the script with the log's tail."""
    with open(log, "w") as err:
        result = subprocess.run(cmd, text=True, stdout=subprocess.PIPE,
                                stderr=err, **kwargs)
    if result.returncode != 0:
        raise SystemExit(f"perf_pairs: {' '.join(cmd)} exited "
                         f"{result.returncode}; tail of {log}:\n"
                         f"{log_tail(log)}")
    return result.stdout


def run_perfbench(tree, build_dir, workload, seed, seconds, trace, log):
    """Runs one perfbench invocation; returns its metrics {name: value}."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    lines = run_logged(cmd, log, cwd=tree, env=env).strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perf_pairs: {' '.join(cmd)} printed no result; "
                         f"tail of {log}:\n{log_tail(log)}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"perf_pairs: {tree} reported correct=false; "
                         f"tail of {log}:\n{log_tail(log)}")
    return {name: m["value"] for name, m in res["metrics"].items()}


def build_kernels(tree, build_dir, log_stem):
    """Builds bench_kernels (Release) from `tree`; returns the binary."""
    run_logged(["cmake", "-S", tree, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], log_stem + "-configure.log")
    run_logged(["cmake", "--build", build_dir, "--target", "bench_kernels",
                "-j", str(len(os.sched_getaffinity(0)))],
               log_stem + "-build.log")
    return os.path.join(build_dir, "bench", "bench_kernels")


def kernel_metrics(doc):
    """Google Benchmark JSON -> {benchmark: real time in ns per iteration}."""
    metrics = {b["name"]: b["real_time"] * NS_PER_UNIT[b["time_unit"]]
               for b in doc["benchmarks"]}
    if not metrics:
        raise SystemExit("perf_pairs: bench_kernels reported no benchmarks")
    return metrics


def run_kernels(binary, cpu, out_stem):
    """Runs bench_kernels --smoke once on a one-thread pool pinned to `cpu`."""
    out = out_stem + ".json"
    run_logged(["taskset", "-c", str(cpu), binary, "--smoke",
                f"--benchmark_out={out}", "--benchmark_out_format=json"],
               out_stem + ".log", env=dict(os.environ, FOCUS_NUM_THREADS="1"))
    with open(out) as f:
        return kernel_metrics(json.load(f))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regressed(base, change, better, bound):
    """The change's median is worse than the base's q3 (q1 when higher is
    better) by more than `bound`, a fraction of that quartile."""
    bq1, _, bq3 = quartiles(base)
    median = statistics.median(change)
    if better == "higher":
        return median < bq1 * (1.0 - bound)
    return median > bq3 * (1.0 + bound)


def report(workload, runs, gate, out=sys.stdout):
    """Prints the pairs' comparison; returns the names of failing metrics.

    `gate(name)` gives (better, bound) or None; a metric with no bound is
    reported but never fails, as is one only one side reports."""
    n = len(runs)
    base_names, change_names = runs[0]["base"], runs[0]["change"]
    print(f"\n{workload}: {n} pairs  (median [q1, q3]; wins = change "
          f"better; FAIL = median worse than base q3/q1 by > bound)",
          file=out)
    print(f"  {'metric':<40} {'base':>28} {'change':>28} {'delta':>8} "
          f"{'wins':>5}  verdict", file=out)
    failed = []
    for name in base_names:
        if name not in change_names:
            continue
        base = [r["base"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        bq, cq = quartiles(base), quartiles(change)
        better, bound = gate(name) or (None, None)
        wins, verdict = "-", "-"
        if better is not None:
            sign = 1 if better == "higher" else -1
            wins = f"{sum(sign * (c - b) > 0 for b, c in zip(base, change))}/{n}"
        if bound is not None:
            verdict = "ok"
            if regressed(base, change, better, bound):
                verdict = "FAIL"
                failed.append(name)
            verdict += f" ({100 * bound:g}%)"
        delta = (f"{100.0 * (cq[1] - bq[1]) / abs(bq[1]):+7.1f}%"
                 if bq[1] else "       -")
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"  {name:<40} {fmt(bq):>28} {fmt(cq):>28} {delta} {wins:>5}"
              f"  {verdict}", file=out)
    for side, names, other in (("base", base_names, change_names),
                               ("change", change_names, base_names)):
        only = [name for name in names if name not in other]
        if only:
            print(f"  only in {side} (not compared): {', '.join(only)}",
                  file=out)
    if failed:
        print(f"{workload}: FAIL {', '.join(failed)}", file=out)
    return failed


def selftest():
    """Checks the verdict rule and the kernel JSON reader on synthetic
    pairs; returns the exit code."""
    import io

    def pairs(base, change, n=10):
        # Each side jitters by up to 2% across its runs.
        jitter = lambda i: 1.0 + 0.01 * (i % 3)
        return [{"base": {k: v * jitter(i) for k, v in base.items()},
                 "change": {k: v * jitter(i + 1) for k, v in change.items()}}
                for i in range(n)]

    def check(cond, what):
        if not cond:
            raise SystemExit(f"perf_pairs selftest FAIL: {what}\n"
                             f"{sink.getvalue()}")

    kernel_gate = lambda _name: ("lower", KERNEL_BOUND)
    gates = benchmark_gates()
    sink = io.StringIO()
    kernels = {"BM_MatMul/256": 90000.0, "BM_Conv1d/16/32/96": 420000.0,
               "BM_NearestPrototypeAssignment/1024": 40000.0}
    check(report("kernels", pairs(kernels, kernels), kernel_gate, sink) == [],
          "identical kernel sides failed")
    within = dict(kernels, **{"BM_Conv1d/16/32/96":
                              420000.0 * (1.0 + KERNEL_BOUND / 2)})
    check(report("kernels", pairs(kernels, within), kernel_gate, sink) == [],
          "a kernel slower by half the bound failed")
    slow = dict(kernels, **{"BM_Conv1d/16/32/96": 840000.0})
    check(report("kernels", pairs(kernels, slow), kernel_gate, sink)
          == ["BM_Conv1d/16/32/96"],
          "a kernel 2x slower in every pair was not the one failure")

    bound = gates["saturated_fps"][1]
    e2e = {"saturated_fps": 3000.0, "low_p50_us": 500.0,
           "loadgen.sent": 1000.0, "serve.engine_p99_us": 700.0}
    check(report("serve_long", pairs(e2e, e2e), gates.get, sink) == [],
          "identical perfbench sides failed")
    within = dict(e2e, saturated_fps=3000.0 * (1.0 - bound / 2))
    check(report("serve_long", pairs(e2e, within), gates.get, sink) == [],
          "a drop inside saturated_fps's bound failed")
    drop = dict(e2e, saturated_fps=3000.0 * (1.0 - 2 * bound))
    check(report("serve_long", pairs(e2e, drop), gates.get, sink)
          == ["saturated_fps"],
          "saturated_fps dropping past its bound was not the one failure")
    per_layer = dict(e2e, **{"loadgen.sent": 10.0,
                             "serve.engine_p99_us": 70000.0})
    check(report("serve_long", pairs(e2e, per_layer), gates.get, sink) == [],
          "a per-layer metric failed")

    sink = io.StringIO()
    renamed = {k: v for k, v in kernels.items() if k != "BM_MatMul/256"}
    renamed["BM_New/8"] = 5.0
    check(report("kernels", pairs(kernels, renamed), kernel_gate, sink) == []
          and "only in base (not compared): BM_MatMul/256" in sink.getvalue()
          and "only in change (not compared): BM_New/8" in sink.getvalue(),
          "a benchmark only one side runs was gated or not named")

    doc = {"benchmarks": [
        {"name": "BM_A", "real_time": 2.5, "time_unit": "us"},
        {"name": "BM_B", "real_time": 1.5, "time_unit": "ms"},
        {"name": "BM_C", "real_time": 7.0, "time_unit": "ns"}]}
    check(kernel_metrics(doc) == {"BM_A": 2500.0, "BM_B": 1.5e6,
                                  "BM_C": 7.0},
          "time units did not convert to ns")
    try:
        kernel_metrics({"benchmarks": []})
    except SystemExit as e:
        check("no benchmarks" in str(e), "wrong error for an empty report")
    else:
        check(False, "an empty bench_kernels report was accepted")
    print("perf_pairs selftest OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base ref (default: merge-base with main)")
    parser.add_argument("--workload", action="append",
                        help="perfbench workload name or `kernels`; "
                             "repeatable (default: serve_long)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_pairs"))
    parser.add_argument("--selftest", action="store_true",
                        help="check the verdict rule on synthetic pairs")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    base_ref = args.base or git("merge-base", "HEAD", "main")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or ["serve_long"]
    work = os.path.abspath(args.work_dir)
    runs_dir = os.path.join(work, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    trees = {"base": os.path.join(work, "base"), "change": ROOT}
    export_base(base_ref, trees["base"])
    cpu = max(os.sched_getaffinity(0))
    print(f"base {git('rev-parse', '--short', base_ref)}  "
          f"change {git('rev-parse', '--short', 'HEAD')} + working tree  "
          f"seconds {args.seconds}  seeds {seeds}  trace {args.trace}  "
          f"kernels pinned to cpu {cpu}")

    gates = benchmark_gates()
    failed = []
    for workload in workloads:
        if workload == "kernels":
            binaries = {side: build_kernels(
                            tree, os.path.join(work, f"{side}-kernels-build"),
                            os.path.join(runs_dir, f"{side}-kernels"))
                        for side, tree in trees.items()}
        runs = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            pair = {}
            for side in order:
                stem = os.path.join(runs_dir, f"{workload}-{side}-{i + 1}")
                if workload == "kernels":
                    pair[side] = run_kernels(binaries[side], cpu, stem)
                else:
                    pair[side] = run_perfbench(
                        trees[side], os.path.join(work, f"{side}-build"),
                        workload, seed, args.seconds, args.trace,
                        stem + ".log")
            runs.append(pair)
            print(f"  {workload} pair {i + 1}/{args.pairs} (seed {seed}, "
                  f"{order[0]} first) done", file=sys.stderr, flush=True)
        gate = ((lambda _name: ("lower", KERNEL_BOUND))
                if workload == "kernels" else gates.get)
        failed += report(workload, runs, gate)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
