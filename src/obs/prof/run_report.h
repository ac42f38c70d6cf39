// End-of-run performance report with roofline attribution.
//
// BuildRunReport() folds a run's SpanEvents into one row per span name and
// derives the roofline figures for each:
//
//   achieved GFLOP/s     = flops / wall_us * 1e-3
//   arithmetic intensity = flops / alloc_bytes      (FLOPs per logical
//                          tensor byte allocated in the span — the byte-
//                          traffic proxy; see DESIGN.md §9 for why logical
//                          allocation traffic, not DRAM traffic)
//
// The report ranks the top-N spans by inclusive wall-clock, by FLOPs, and
// by allocated bytes — the three axes a serving/plan PR will optimize —
// and renders as an ASCII table (ToAscii) or JSON (ToJson).
//
// Wiring: binaries that parse flags call ApplyReportFlag() once after
// ApplyTraceFlag(); `--report` prints the table at process exit and
// `--report-json=<path>` additionally writes the JSON file. The
// FOCUS_REPORT_JSON env var is honored independently (any tracing-aware
// binary, no flag plumbing needed). Both enable span collection.
#ifndef FOCUS_OBS_PROF_RUN_REPORT_H_
#define FOCUS_OBS_PROF_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "utils/status.h"

namespace focus {

class FlagParser;

namespace obs {
namespace prof {

// Derived roofline figures for one SpanEvent. Safe on zero denominators
// (return 0). Aggregate overloads use summed stats.
double AchievedGflops(const SpanEvent& ev);
double ArithmeticIntensity(const SpanEvent& ev);
double AchievedGflops(const SpanStats& stats);
double ArithmeticIntensity(const SpanStats& stats);

// One aggregated span name with its roofline attribution.
struct RunReportRow {
  std::string name;
  int64_t count = 0;
  int64_t wall_us = 0;
  int64_t flops = 0;
  int64_t alloc_bytes = 0;
  // How many of the aggregated events ran on a compiled execution plan
  // (src/plan); count == planned means the span is fully planned.
  int64_t planned = 0;
  double gflops = 0.0;
  double arith_intensity = 0.0;
};

struct RunReport {
  // Top-N rows per ranking axis, descending. A span name can appear in
  // all three lists.
  std::vector<RunReportRow> by_wall;
  std::vector<RunReportRow> by_flops;
  std::vector<RunReportRow> by_bytes;
  int64_t total_wall_us = 0;
  int64_t total_flops = 0;
  int64_t total_alloc_bytes = 0;

  std::string ToAscii() const;
  std::string ToJson() const;
};

RunReport BuildRunReport(const std::vector<SpanEvent>& events,
                         int top_n = 5);

// Registers an at-exit report over the Tracer's buffered spans. Either
// argument may be empty/false; a no-op when both are. Enables tracing.
void ConfigureRunReport(bool print_table, const std::string& json_path);

// Reads FOCUS_REPORT_JSON and registers the at-exit report when set;
// returns whether it did. Deliberately does NOT enable the tracer — it is
// called from inside Tracer first-use initialization, which enables
// collection itself on a true return.
bool ConfigureRunReportFromEnv();

// Wires `--report` and `--report-json=<path>` into ConfigureRunReport().
void ApplyReportFlag(const FlagParser& flags);

}  // namespace prof
}  // namespace obs
}  // namespace focus

#endif  // FOCUS_OBS_PROF_RUN_REPORT_H_
