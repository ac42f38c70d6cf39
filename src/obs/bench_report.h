// Unified benchmark-result schema.
//
// Every benchmark binary that records numbers into results/ emits this one
// JSON shape, so scripts/bench_diff.py can compare any two recordings —
// across PRs, backends, and machines — and fail the perf gate on a
// regression. The header pins the provenance a fair comparison needs:
//
//   {
//     "focus_bench_schema": 1,
//     "date": "2026-08-08T12:00:00Z",
//     "note": "",
//     "machine": {"cpu_model": "...", "num_cpus": 8},
//     "build": {"git_sha": "abc1234", "simd_backend": "avx2",
//               "build_type": "Release", "threads": 8},
//     "benchmarks": [
//       {"name": "BM_MatMul/256", "ns_per_op": 1234.5, "gflops": 27.2,
//        "items_per_second": 0, "threads": 1, "label": "avx2"}, ...
//     ]
//   }
//
// ns_per_op is the one mandatory per-entry metric (the regression gate's
// axis); gflops/items_per_second/threads/label/bytes_per_op are optional
// context (bytes_per_op — estimated operand bytes moved per op — is
// emitted only when nonzero, so pre-existing reports parse unchanged).
// Adopted by bench_kernels (--focus-bench-json=<path> / FOCUS_BENCH_JSON)
// and bench_fig6_efficiency (--bench-json=<path>).
#ifndef FOCUS_OBS_BENCH_REPORT_H_
#define FOCUS_OBS_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "utils/status.h"

namespace focus {
namespace obs {

struct BenchEntry {
  std::string name;
  double ns_per_op = 0.0;
  double gflops = 0.0;           // 0 when the bench doesn't measure it
  double items_per_second = 0.0;  // 0 when not measured
  double threads = 0.0;           // pool size the entry ran with
  double bytes_per_op = 0.0;      // operand bytes moved per op; 0 = n/a
  std::string label;              // e.g. the SIMD backend
};

struct BenchReport {
  int schema = 1;
  std::string date;          // ISO-8601 UTC, filled by MakeBenchReport
  std::string note;
  std::string cpu_model;     // /proc/cpuinfo "model name"
  int num_cpus = 0;
  std::string git_sha;       // compiled in at configure time
  std::string simd_backend;  // active simd::BackendName()
  std::string build_type;    // CMAKE_BUILD_TYPE
  int threads = 0;           // ThreadPool size of the recording process
  std::vector<BenchEntry> entries;

  std::string ToJson() const;
};

// Fills the machine/build header for the current process. `threads` is
// passed in so this library stays independent of the thread pool.
BenchReport MakeBenchReport(int threads);

Status WriteBenchReport(const BenchReport& report, const std::string& path);

// Minimal parser for the schema above (exact-shape, not a general JSON
// parser): used by tests for round-trip coverage and by tools that read
// reports back. Returns false on any structural mismatch.
bool ParseBenchReport(const std::string& json, BenchReport* out);

}  // namespace obs
}  // namespace focus

#endif  // FOCUS_OBS_BENCH_REPORT_H_
