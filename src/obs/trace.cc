#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics_registry.h"
#include "obs/prof/run_report.h"
#include "tensor/allocator.h"
#include "tensor/flops.h"
#include "tensor/memory.h"
#include "utils/env.h"
#include "utils/flags.h"

namespace focus {
namespace obs {

namespace internal_obs {
std::atomic<bool> g_enabled{false};
}  // namespace internal_obs

namespace {

// Microseconds since a process-wide steady epoch (first call wins).
int64_t NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// This thread's live spans, innermost last (for depth and parent
// self-FLOP accounting).
std::vector<TraceSpan*>& Stack() {
  thread_local std::vector<TraceSpan*> stack;
  return stack;
}

void AppendSpanArgs(std::string& out, const SpanEvent& ev) {
  out += "\"flops\":" + std::to_string(ev.flops);
  out += ",\"self_flops\":" + std::to_string(ev.self_flops);
  out += ",\"peak_bytes\":" + std::to_string(ev.peak_bytes);
  out += ",\"allocs\":" + std::to_string(ev.allocs);
  out += ",\"alloc_hits\":" + std::to_string(ev.alloc_hits);
  out += ",\"alloc_misses\":" + std::to_string(ev.alloc_misses);
  out += ",\"alloc_bytes\":" + std::to_string(ev.alloc_bytes);
  out += ",\"wall_us\":" + std::to_string(ev.wall_us);
  out += ",\"depth\":" + std::to_string(ev.depth);
  out += ",\"planned\":";
  out += ev.planned ? "true" : "false";
  // Roofline attribution (obs/prof): achieved GFLOP/s over the span's
  // wall-clock, and arithmetic intensity against the span's logical byte
  // traffic. Always emitted — they derive from fields recorded above.
  out += ",\"gflops\":" + FormatDouble(prof::AchievedGflops(ev));
  out += ",\"arith_intensity\":" +
         FormatDouble(prof::ArithmeticIntensity(ev));
}

void AppendHistogramJson(std::string& out,
                         const MetricsRegistry::HistogramSummary& h) {
  out += "{\"count\":" + std::to_string(h.count);
  out += ",\"min\":" + FormatDouble(h.min);
  out += ",\"max\":" + FormatDouble(h.max);
  out += ",\"mean\":" + FormatDouble(h.mean);
  out += ",\"p50\":" + FormatDouble(h.p50);
  out += ",\"p95\":" + FormatDouble(h.p95);
  out += ",\"p99\":" + FormatDouble(h.p99);
  out += "}";
}

std::string RenderChromeTrace(const std::vector<SpanEvent>& events) {
  std::string out;
  out.reserve(events.size() * 160 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    AppendEscaped(out, ev.name);
    out += "\",\"cat\":\"focus\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    out += std::to_string(ev.ts_us);
    out += ",\"dur\":" + std::to_string(ev.wall_us);
    out += ",\"args\":{";
    AppendSpanArgs(out, ev);
    out += "}}";
  }
  out += "\n],\n\"focusMetrics\":{";
  const MetricsRegistry& registry = MetricsRegistry::Get();
  out += "\"counters\":{";
  bool f = true;
  for (const auto& [name, value] : registry.Counters()) {
    if (!f) out += ",";
    f = false;
    out += "\"";
    AppendEscaped(out, name);
    out += "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  f = true;
  for (const auto& [name, value] : registry.Gauges()) {
    if (!f) out += ",";
    f = false;
    out += "\"";
    AppendEscaped(out, name);
    out += "\":" + FormatDouble(value);
  }
  out += "},\"histograms\":{";
  f = true;
  for (const auto& [name, summary] : registry.Histograms()) {
    if (!f) out += ",";
    f = false;
    out += "\"";
    AppendEscaped(out, name);
    out += "\":";
    AppendHistogramJson(out, summary);
  }
  out += "}}}\n";
  return out;
}

}  // namespace

std::vector<std::pair<std::string, SpanStats>> AggregateSpans(
    const std::vector<SpanEvent>& events) {
  std::vector<std::pair<std::string, SpanStats>> out;
  for (const SpanEvent& ev : events) {
    SpanStats* stats = nullptr;
    for (auto& entry : out) {
      if (entry.first == ev.name) {
        stats = &entry.second;
        break;
      }
    }
    if (stats == nullptr) {
      out.emplace_back(ev.name, SpanStats{});
      stats = &out.back().second;
    }
    ++stats->count;
    stats->wall_us += ev.wall_us;
    stats->flops += ev.flops;
    stats->self_flops += ev.self_flops;
    stats->peak_bytes = std::max(stats->peak_bytes, ev.peak_bytes);
    stats->allocs += ev.allocs;
    stats->alloc_hits += ev.alloc_hits;
    stats->alloc_misses += ev.alloc_misses;
    stats->alloc_bytes += ev.alloc_bytes;
    stats->planned += ev.planned ? 1 : 0;
  }
  return out;
}

Tracer& Tracer::Get() {
  // Leaked singleton (never destroyed) so the atexit flush and spans in
  // static destructors stay safe. First use applies FOCUS_TRACE from the
  // environment.
  static Tracer* tracer = [] {
    Tracer* t = new Tracer();
    const std::string path = GetEnvOr("FOCUS_TRACE", "");
    if (!path.empty()) t->SetOutput(path);
    // FOCUS_REPORT_JSON: end-of-run roofline report, independent of
    // FOCUS_TRACE. Enable() on the local pointer — Tracer::Get() must not
    // re-enter its own initialization.
    if (prof::ConfigureRunReportFromEnv()) t->Enable();
    return t;
  }();
  return *tracer;
}

void Tracer::Enable() {
  internal_obs::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() {
  internal_obs::g_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::SetOutput(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
    if (!path_.empty() && !atexit_registered_) {
      atexit_registered_ = true;
      std::atexit([] {
        const Status status = Tracer::Get().Flush();
        if (!status.ok()) {
          std::fprintf(stderr, "focus: trace not written: %s\n",
                       status.ToString().c_str());
        }
      });
    }
  }
  if (!path.empty()) Enable();
}

void Tracer::Record(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<SpanEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string Tracer::output_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

Status Tracer::Flush() {
  std::vector<SpanEvent> events;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty()) return Status::Ok();
    events = events_;
    path = path_;
  }
  // Exports embed the MetricsRegistry; refresh the allocator mirror first
  // so "alloc/*" counters in the file match the allocator at flush time.
  PublishAllocatorMetrics();
  const std::string payload = RenderChromeTrace(events);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open trace file " + path);
  const bool ok =
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  std::fclose(f);
  if (!ok) return Status::IoError("short write to trace file " + path);
  return Status::Ok();
}

TraceSpan::TraceSpan(const char* name, Options options) : name_(name) {
  if (!TracingEnabled()) return;
  active_ = true;
  planned_ = options.planned;
  std::vector<TraceSpan*>& stack = Stack();
  depth_ = static_cast<int32_t>(stack.size());
  stack.push_back(this);
  start_ts_us_ = NowUs();
  start_flops_ = FlopCounter::Count();
  start_allocs_ = MemoryStats::TotalAllocations();
  const AllocatorStats alloc_stats = Allocator::Get().Stats();
  start_alloc_hits_ = alloc_stats.hits;
  start_alloc_misses_ = alloc_stats.misses;
  start_bytes_ = MemoryStats::CurrentBytes();
  start_alloc_bytes_ = MemoryStats::TotalAllocatedBytes();
  // Window the global high-water mark to this span: reset it on entry and
  // restore the running maximum on exit, so nested spans and outer
  // observers (e.g. metrics::ProbeEfficiency) both see correct peaks.
  saved_peak_ = MemoryStats::PeakBytes();
  MemoryStats::SetPeak(start_bytes_);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  std::vector<TraceSpan*>& stack = Stack();
  if (!stack.empty() && stack.back() == this) stack.pop_back();
  const int64_t end_ts = NowUs();
  const int64_t inclusive_flops = FlopCounter::Count() - start_flops_;
  const int64_t span_peak = MemoryStats::PeakBytes();
  MemoryStats::SetPeak(std::max(saved_peak_, span_peak));
  if (!stack.empty()) stack.back()->child_flops_ += inclusive_flops;
  SpanEvent event;
  event.name = name_;
  event.depth = depth_;
  event.planned = planned_;
  event.ts_us = start_ts_us_;
  event.wall_us = end_ts - start_ts_us_;
  event.flops = inclusive_flops;
  event.self_flops = inclusive_flops - child_flops_;
  event.peak_bytes = std::max<int64_t>(span_peak - start_bytes_, 0);
  event.allocs = MemoryStats::TotalAllocations() - start_allocs_;
  const AllocatorStats alloc_stats = Allocator::Get().Stats();
  event.alloc_hits = alloc_stats.hits - start_alloc_hits_;
  event.alloc_misses = alloc_stats.misses - start_alloc_misses_;
  event.alloc_bytes = MemoryStats::TotalAllocatedBytes() - start_alloc_bytes_;
  Tracer::Get().Record(std::move(event));
}

void ApplyTraceFlag(const FlagParser& flags) {
  if (!flags.Has("trace")) return;
  std::string path = flags.GetString("trace", "");
  if (path.empty() || path == "true") path = "trace.json";
  Tracer::Get().SetOutput(path);
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace obs
}  // namespace focus
