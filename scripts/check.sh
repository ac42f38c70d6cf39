#!/usr/bin/env bash
# One-command correctness gate: runs the full matrix the CI would run.
#
#   1. lint      — scripts/focus_lint.py (repo + format rules), plus
#                  clang-format/clang-tidy when those tools are installed.
#   2. default   — Release build with -Werror; full ctest suite.
#   3. simdoff   — Release build with -DFOCUS_SIMD=OFF (the AVX2 backend is
#                  not even compiled); re-runs the `parity` and `core` test
#                  labels to prove the scalar backend alone satisfies the
#                  numeric and bit-identity contracts.
#   4. asan      — AddressSanitizer + UBSan (-fno-sanitize-recover): any
#                  heap error or UB aborts the test. Runs with
#                  FOCUS_SIMD=scalar so every lane access is a plain float
#                  read the sanitizers can attribute byte-exactly (a 32-byte
#                  vector load can mask a 4-byte overrun).
#   5. tsan      — ThreadSanitizer; the suite additionally re-runs the
#                  parallel-sensitive tests with FOCUS_NUM_THREADS=4 and 8
#                  (registered by tests/CMakeLists.txt under FOCUS_TSAN).
#   6. precision — re-runs the `parity` tests and the `quant`
#                  accuracy-budget gate with FOCUS_PRECISION=int8proto in
#                  the default Release build: the bit-identity contracts
#                  (eager/planned/served, scalar/avx2) must hold in every
#                  precision mode, and the MSE delta must stay inside the
#                  budget committed in bench/bench_quant.cc.
#
# An optional `perf` leg (not in the default matrix — it needs a quiet
# machine) builds bench_kernels in Release, runs its --smoke subset
# with --focus-bench-json, and gates ns/op against the committed baseline
# results/BENCH_smoke_baseline.json via scripts/bench_diff.py. The
# threshold is deliberately generous (50%) because CI containers share
# cores; it catches order-of-magnitude regressions, not noise.
#
# Each leg uses its own build directory (build-check / build-asan /
# build-tsan) so instrumented objects never mix. Sanitizer legs disable
# benchmarks/examples (FOCUS_BUILD_BENCH=OFF) — they aren't tests and
# instrumented builds are slow.
#
# Usage:
#   scripts/check.sh                # full matrix
#   scripts/check.sh lint           # one leg:
#                                   #   lint|default|simdoff|asan|tsan|
#                                   #   precision|perf
#   FOCUS_CHECK_JOBS=8 scripts/check.sh   # override build parallelism
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${FOCUS_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"
cd "$REPO_ROOT"

note() { printf '\n=== check.sh: %s ===\n' "$*"; }

run_leg_lint() {
  note "lint (focus_lint.py repo+format rules)"
  python3 scripts/focus_lint.py --rules=repo,format

  if command -v clang-format >/dev/null 2>&1; then
    note "lint (clang-format --dry-run)"
    git ls-files 'src/**/*.cc' 'src/**/*.h' 'tests/*.cc' \
      | xargs clang-format --dry-run --Werror
  else
    echo "check.sh: clang-format not installed; skipping (format rules" \
         "covered by focus_lint.py)"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    note "lint (clang-tidy over src/)"
    cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DFOCUS_BUILD_BENCH=OFF >/dev/null
    git ls-files 'src/**/*.cc' | xargs clang-tidy -p build-tidy --quiet
  else
    echo "check.sh: clang-tidy not installed; skipping (.clang-tidy config" \
         "still applies wherever the tool is available)"
  fi
}

configure_build_test() {
  local dir="$1"; shift
  note "configure $dir ($*)"
  cmake -B "$dir" -S . "$@" >/dev/null
  note "build $dir"
  cmake --build "$dir" -j "$JOBS"
  note "ctest $dir"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_leg_default() {
  configure_build_test build-check \
    -DCMAKE_BUILD_TYPE=Release -DFOCUS_WERROR=ON
}

run_leg_simdoff() {
  # Scalar-only build: -DFOCUS_SIMD=OFF removes the AVX2 TU from the
  # target entirely, so this leg fails to even link if anything outside
  # src/tensor/simd grew a hard dependency on the vector backend. The
  # parity label carries the bit-identity contracts; core carries the
  # numeric kernels and the end-to-end model path.
  local dir=build-simdoff
  note "configure $dir (-DFOCUS_SIMD=OFF)"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DFOCUS_SIMD=OFF \
    -DFOCUS_BUILD_BENCH=OFF >/dev/null
  note "build $dir"
  cmake --build "$dir" -j "$JOBS"
  note "ctest $dir (-L 'parity|core')"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L 'parity|core'
}

run_leg_asan() {
  # Bypass the caching allocator (FOCUS_ALLOC_CACHE_MB=0) so every freed
  # tensor buffer really goes back to the system and ASan keeps catching
  # use-after-free / stale reads across the rest of the suite; a recycled
  # buffer would look live to ASan. The allocator's own caching paths are
  # still exercised here: allocator_test and parity_test raise the cap
  # programmatically via SetCapBytes().
  # FOCUS_SIMD=scalar keeps the run on the portable backend: identical
  # numbers (the parity tests prove it), but every lane access is a plain
  # float read ASan/UBSan can attribute precisely, instead of a 32-byte
  # vector load that can mask a 4-byte overrun.
  # FOCUS_PRECISION=f32 pins the sanitizer run to the default precision
  # even when the invoking shell exported FOCUS_PRECISION=int8proto: the
  # precision leg owns int8proto coverage, and a sanitizer failure
  # should always reproduce under the one canonical configuration.
  FOCUS_ALLOC_CACHE_MB=0 FOCUS_SIMD=scalar FOCUS_PRECISION=f32 \
    configure_build_test build-asan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFOCUS_ASAN=ON -DFOCUS_BUILD_BENCH=OFF
}

run_leg_precision() {
  # int8proto pass over the default Release build: every bit-identity
  # contract (label `parity`: eager vs planned vs served, scalar vs avx2)
  # must hold under FOCUS_PRECISION=int8proto, and the `quant` label runs
  # bench_quant --smoke, which fails on any MSE delta beyond the budget
  # committed in bench/bench_quant.cc.
  # f32 needs no separate pass here — the default leg already ran the
  # whole suite at the default precision.
  local dir=build-check
  note "configure $dir (Release, for precision sweep)"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DFOCUS_WERROR=ON \
    >/dev/null
  note "build $dir"
  cmake --build "$dir" -j "$JOBS"
  note "ctest $dir (-L 'parity|quant', FOCUS_PRECISION=int8proto)"
  FOCUS_PRECISION=int8proto ctest --test-dir "$dir" --output-on-failure \
    -j "$JOBS" -L 'parity|quant'
}

run_leg_tsan() {
  configure_build_test build-tsan \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFOCUS_TSAN=ON -DFOCUS_BUILD_BENCH=OFF
}

run_leg_perf() {
  # Opt-in perf-regression gate: smoke-run the kernel benchmarks and
  # compare ns/op against the committed baseline. Threshold is generous
  # (50%) — shared CI cores make tight gates flaky; this catches real
  # regressions (algorithmic slowdowns, lost vectorization), not jitter.
  local dir=build-perf
  note "configure $dir (Release, bench only)"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  note "build $dir (bench_kernels)"
  cmake --build "$dir" --target bench_kernels -j "$JOBS"
  note "bench_kernels --smoke"
  "$dir/bench/bench_kernels" --smoke \
    --focus-bench-json="$dir/BENCH_smoke.json"
  note "bench_diff vs results/BENCH_smoke_baseline.json"
  python3 scripts/bench_diff.py results/BENCH_smoke_baseline.json \
    "$dir/BENCH_smoke.json" --threshold-pct=50
}

LEGS=("${@:-lint default simdoff precision asan tsan}")
[ $# -gt 0 ] && LEGS=("$@") \
  || LEGS=(lint default simdoff precision asan tsan)
for leg in "${LEGS[@]}"; do
  case "$leg" in
    lint)      run_leg_lint ;;
    default)   run_leg_default ;;
    simdoff)   run_leg_simdoff ;;
    precision) run_leg_precision ;;
    asan)      run_leg_asan ;;
    tsan)      run_leg_tsan ;;
    perf)      run_leg_perf ;;
    *) echo "check.sh: unknown leg '$leg'" \
            "(want lint|default|simdoff|precision|asan|tsan|perf)" >&2
       exit 2 ;;
  esac
done

note "all legs passed (${LEGS[*]})"
