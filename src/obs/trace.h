// Unified tracing: span-scoped wall-clock / FLOPs / peak-memory /
// allocation attribution with Chrome-trace export.
//
// A TraceSpan is an RAII scope. On entry it snapshots the global FLOP,
// memory, and allocation counters; on exit it records a SpanEvent holding
// the deltas. Spans nest via a thread-local stack, so a span knows both its
// inclusive cost and its self cost (inclusive minus enclosed spans) — the
// per-component view behind the paper's Fig. 6 / Table IV efficiency
// breakdown. Span self-FLOPs are the repo's only per-component FLOP
// attribution.
//
// Recording is off by default; a TraceSpan then costs one enabled-flag
// check. Enable it either programmatically (Tracer::Get().Enable() for
// in-memory collection, SetOutput() to also write a file at exit) or
// externally:
//
//   FOCUS_TRACE=trace.json ./examples/quickstart
//   ./examples/focus_cli train --trace=trace.json ...
//
// Chrome-trace output loads in chrome://tracing or https://ui.perfetto.dev.
#ifndef FOCUS_OBS_TRACE_H_
#define FOCUS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "utils/status.h"

namespace focus {

class FlagParser;

namespace obs {

// One completed span. Costs are inclusive of nested spans except
// self_flops; peak_bytes is the high-water mark of live tensor bytes above
// the span's entry level.
struct SpanEvent {
  std::string name;
  int32_t depth = 0;       // nesting depth at entry (0 = top level)
  int64_t ts_us = 0;       // start time, microseconds since tracer epoch
  int64_t wall_us = 0;
  int64_t flops = 0;       // inclusive
  int64_t self_flops = 0;  // exclusive of enclosed spans
  int64_t peak_bytes = 0;
  int64_t allocs = 0;
  // Caching-allocator behaviour inside the span (inclusive): buffers served
  // from the recycle cache vs. from the system heap.
  int64_t alloc_hits = 0;
  int64_t alloc_misses = 0;
  // Logical tensor bytes allocated during the span (inclusive) — the byte
  // traffic term of the roofline attribution (obs/prof/run_report.h).
  int64_t alloc_bytes = 0;
  // True when the span ran on a compiled execution plan (src/plan)
  // rather than the eager op-by-op path.
  bool planned = false;
};

// Per-name aggregate over a set of events, in first-use order.
struct SpanStats {
  int64_t count = 0;
  int64_t wall_us = 0;     // summed
  int64_t flops = 0;       // summed inclusive
  int64_t self_flops = 0;  // summed self
  int64_t peak_bytes = 0;  // max over events
  int64_t allocs = 0;      // summed
  int64_t alloc_hits = 0;    // summed
  int64_t alloc_misses = 0;  // summed
  int64_t alloc_bytes = 0;   // summed
  int64_t planned = 0;       // count of events with planned=true
};
std::vector<std::pair<std::string, SpanStats>> AggregateSpans(
    const std::vector<SpanEvent>& events);

namespace internal_obs {
extern std::atomic<bool> g_enabled;
}  // namespace internal_obs

// Process-wide collector. First use reads FOCUS_TRACE (Chrome-trace output
// path).
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const {
    return internal_obs::g_enabled.load(std::memory_order_relaxed);
  }

  // Starts in-memory collection.
  void Enable();
  // Stops collection; buffered events stay until Clear().
  void Disable();

  // Configures the export file and enables collection. The file is written
  // by Flush(), which is also registered to run at process exit. An empty
  // path clears the output (Flush becomes a no-op).
  void SetOutput(const std::string& path);

  void Record(SpanEvent event);
  std::vector<SpanEvent> Snapshot() const;
  void Clear();

  // Writes all buffered events plus the MetricsRegistry contents to the
  // configured path. No-op when no path is set.
  Status Flush();

  std::string output_path() const;

  // No-op: spans are the only trace unit and kernels emit none. Kept only
  // because perfbench/perfbench.cc still calls it; goes with the next
  // change to the benchmark.
  void SetKernelSampleRate(int /*rate*/) {}

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
  std::string path_;
  bool atexit_registered_ = false;
};

inline bool TracingEnabled() { return Tracer::Get().enabled(); }

// RAII span. `name` must have static lifetime (string literals). Spans must
// be destroyed in LIFO order (automatic storage guarantees this).
class TraceSpan {
 public:
  struct Options {
    // Marks the span as planned execution (src/plan replay); surfaces
    // in exports and the run-report `planned` column.
    bool planned = false;
  };

  explicit TraceSpan(const char* name) : TraceSpan(name, Options{}) {}
  TraceSpan(const char* name, Options options);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  bool planned_ = false;
  int32_t depth_ = 0;
  int64_t start_ts_us_ = 0;
  int64_t start_flops_ = 0;
  int64_t start_allocs_ = 0;
  int64_t start_alloc_hits_ = 0;
  int64_t start_alloc_misses_ = 0;
  int64_t start_bytes_ = 0;
  int64_t saved_peak_ = 0;
  int64_t child_flops_ = 0;
  int64_t start_alloc_bytes_ = 0;
};

// Wires the conventional `--trace=<path>` flag into the tracer. Call once
// after parsing argv; the FOCUS_TRACE env var is honored independently.
void ApplyTraceFlag(const FlagParser& flags);

// JSON text helpers shared by the obs exporters: appends `s` to `out` as
// the body of a JSON string (quotes, backslashes and control characters
// escaped), and formats a double as a compact "%.6g" JSON number.
void AppendEscaped(std::string& out, const std::string& s);
std::string FormatDouble(double v);

}  // namespace obs
}  // namespace focus

#endif  // FOCUS_OBS_TRACE_H_
