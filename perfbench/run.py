#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library and focus_perfbench (perfbench.cc)
are built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build). --trace 0 runs the workload once and reports the end-to-end
metrics. --trace 1 runs it twice, untraced and traced, each for half of
--seconds, and reports the per-layer metrics of the traced run plus the
tracing overhead: the traced minus the untraced value of every end-to-end
metric.

The report is printed first, one metric per line with its unit (and, for
per-layer metrics, the end-to-end metric it should move). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the build fails, a workload cannot run, or a
correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds focus_perfbench; returns its path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "focus_perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "focus_perfbench")


def run_binary(binary, args, seconds, trace, deadline_s):
    """Runs focus_perfbench once and returns its result object."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=deadline_s)
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench: focus_perfbench exited {result.returncode} without a result")
    return json.loads(lines[-1])


def fmt(value):
    return f"{value:.6g}"


def report_header(res, args):
    m, t, s, p = res["machine"], res["threads"], res["samples"], res["phases"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"machine: nproc {m['nproc']}, cpu {m['cpu']}, simd {m['simd']}, build {m['build_type']}",
        f"threads: loadgen {t['loadgen']}, serve workers {t['serve_workers']}, "
        f"kernel pool {t['kernel_pool_serving']} while serving / "
        f"{t['kernel_pool_refresh']} in the refresh",
        f"offered: low {p['offered_per_s']['low']}/s for {p['low_s']} s, "
        f"high {p['offered_per_s']['high']}/s for {p['high_s']} s, "
        f"saturated for {p['saturated_s']} s, in {s['rounds']} interleaved rounds",
        f"samples: low {s['low']}, high {s['high']}, saturated {s['saturated']} requests; "
        f"p50s and p99s pool all rounds; p90s are per-round medians",
        f"operations: {res['attempted']} attempted, {res['failed']} failed; "
        f"parity {res['parity_samples']} samples, {res['parity_mismatches']} mismatches; "
        f"set-up repeated {s['setup_reps']}x",
    ]
    for line in lines:
        print(line)


def samples_for(name, samples):
    for phase in ("low", "high"):
        if name.startswith(phase + "_"):
            return f"  (n={samples[phase]})"
    if name == "saturated_fps":
        return f"  (n={samples['saturated']})"
    return ""


def expected_names(kind):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if not args.trace:
        res = run_binary(binary, args, args.seconds, False, RUN_TIMEOUT_S)
        report_header(res, args)
        print("end-to-end:")
        for name, m in res["end_to_end"].items():
            print(f"  {name:<22} {fmt(m['value']):>14} {m['unit']}"
                  f"{samples_for(name, res['samples'])}")
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in res["end_to_end"].items()}
        runs = [res]
        kind = "end_to_end"
    else:
        half = args.seconds / 2.0
        plain = run_binary(binary, args, half, False, RUN_TIMEOUT_S // 2)
        traced = run_binary(binary, args, half, True, RUN_TIMEOUT_S // 2)
        report_header(traced, args)
        print("per-layer (traced run)                               -> should move")
        metrics = {}
        for name, m in traced["per_layer"].items():
            print(f"  {name:<40} {fmt(m['value']):>14} {m['unit']:<6} -> {m['moves']}")
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
        print("tracing overhead (traced - untraced)")
        for name, m in traced["end_to_end"].items():
            delta = m["value"] - plain["end_to_end"][name]["value"]
            print(f"  overhead.{name:<31} {fmt(delta):>14} {m['unit']:<6} "
                  f"(untraced {fmt(plain['end_to_end'][name]['value'])})")
            metrics["overhead." + name] = {"value": delta, "unit": m["unit"]}
        runs = [plain, traced]
        kind = "per_layer"

    expected = expected_names(kind)
    if expected is not None and sorted(expected) != sorted(metrics):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json "
                         f"(missing {missing}, unlisted {extra})")
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
