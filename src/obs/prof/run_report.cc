#include "obs/prof/run_report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "obs/metrics_registry.h"
#include "utils/env.h"
#include "utils/flags.h"
#include "utils/table.h"

namespace focus {
namespace obs {
namespace prof {

namespace {

double SafeRatio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// At-exit report configuration (set once, read by the atexit hook).
std::mutex g_report_mu;
bool g_report_print = false;
std::string g_report_json_path;
bool g_report_atexit_registered = false;

void AppendRowJson(std::string& out, const RunReportRow& row) {
  out += "{\"name\":\"";
  AppendEscaped(out, row.name);
  out += "\"";
  out += ",\"count\":" + std::to_string(row.count);
  out += ",\"wall_us\":" + std::to_string(row.wall_us);
  out += ",\"flops\":" + std::to_string(row.flops);
  out += ",\"alloc_bytes\":" + std::to_string(row.alloc_bytes);
  out += ",\"planned\":" + std::to_string(row.planned);
  out += ",\"gflops\":" + FormatDouble(row.gflops);
  out += ",\"arith_intensity\":" + FormatDouble(row.arith_intensity);
  out += "}";
}

void AppendRowsJson(std::string& out, const char* key,
                    const std::vector<RunReportRow>& rows) {
  out += "\"";
  out += key;
  out += "\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    AppendRowJson(out, rows[i]);
  }
  out += "]";
}

Table RowsTable(const std::vector<RunReportRow>& rows) {
  Table table({"Span", "Count", "Planned", "Wall(ms)", "FLOPs(M)",
               "GFLOP/s", "Bytes(MB)", "AI(F/B)"});
  for (const RunReportRow& row : rows) {
    table.AddRow({row.name, std::to_string(row.count),
                  std::to_string(row.planned),
                  Table::Num(static_cast<double>(row.wall_us) / 1e3, 2),
                  Table::Num(static_cast<double>(row.flops) / 1e6, 2),
                  Table::Num(row.gflops, 2),
                  Table::Num(static_cast<double>(row.alloc_bytes) /
                                 (1024.0 * 1024.0),
                             2),
                  Table::Num(row.arith_intensity, 3)});
  }
  return table;
}

std::vector<RunReportRow> TopBy(
    std::vector<RunReportRow> rows, int top_n,
    const std::function<int64_t(const RunReportRow&)>& key) {
  std::stable_sort(rows.begin(), rows.end(),
                   [&key](const RunReportRow& a, const RunReportRow& b) {
                     return key(a) > key(b);
                   });
  if (top_n >= 0 && rows.size() > static_cast<size_t>(top_n)) {
    rows.resize(static_cast<size_t>(top_n));
  }
  return rows;
}

void EmitAtExit() {
  bool print = false;
  std::string json_path;
  {
    std::lock_guard<std::mutex> lock(g_report_mu);
    print = g_report_print;
    json_path = g_report_json_path;
  }
  if (!print && json_path.empty()) return;
  // Counters belong in the report file's sibling trace export; refresh the
  // allocator mirror so a report-only run still ends with final alloc/*
  // values in the registry.
  PublishAllocatorMetrics();
  const RunReport report = BuildRunReport(Tracer::Get().Snapshot());
  if (print) std::fprintf(stderr, "%s", report.ToAscii().c_str());
  if (!json_path.empty()) {
    const std::string payload = report.ToJson();
    std::FILE* f = std::fopen(json_path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(payload.data(), 1, payload.size(), f) !=
            payload.size()) {
      std::fprintf(stderr, "focus: run report not written to %s\n",
                   json_path.c_str());
    }
    if (f != nullptr) std::fclose(f);
  }
}

}  // namespace

double AchievedGflops(const SpanEvent& ev) {
  return SafeRatio(static_cast<double>(ev.flops),
                   static_cast<double>(ev.wall_us) * 1e3);
}

double ArithmeticIntensity(const SpanEvent& ev) {
  return SafeRatio(static_cast<double>(ev.flops),
                   static_cast<double>(ev.alloc_bytes));
}

double AchievedGflops(const SpanStats& stats) {
  return SafeRatio(static_cast<double>(stats.flops),
                   static_cast<double>(stats.wall_us) * 1e3);
}

double ArithmeticIntensity(const SpanStats& stats) {
  return SafeRatio(static_cast<double>(stats.flops),
                   static_cast<double>(stats.alloc_bytes));
}

RunReport BuildRunReport(const std::vector<SpanEvent>& events, int top_n) {
  std::vector<RunReportRow> rows;
  for (const auto& [name, stats] : AggregateSpans(events)) {
    RunReportRow row;
    row.name = name;
    row.count = stats.count;
    row.wall_us = stats.wall_us;
    row.flops = stats.flops;
    row.alloc_bytes = stats.alloc_bytes;
    row.planned = stats.planned;
    row.gflops = AchievedGflops(stats);
    row.arith_intensity = ArithmeticIntensity(stats);
    rows.push_back(std::move(row));
  }
  RunReport report;
  // Totals sum top-level spans only (depth 0) so nested spans are not
  // double-counted.
  for (const SpanEvent& ev : events) {
    if (ev.depth != 0) continue;
    report.total_wall_us += ev.wall_us;
    report.total_flops += ev.flops;
    report.total_alloc_bytes += ev.alloc_bytes;
  }
  report.by_wall = TopBy(
      rows, top_n, [](const RunReportRow& r) { return r.wall_us; });
  report.by_flops =
      TopBy(rows, top_n, [](const RunReportRow& r) { return r.flops; });
  report.by_bytes = TopBy(
      rows, top_n, [](const RunReportRow& r) { return r.alloc_bytes; });
  return report;
}

std::string RunReport::ToAscii() const {
  std::string out;
  out += "=== run report: top spans by wall-clock ===\n";
  out += RowsTable(by_wall).ToAscii();
  out += "=== run report: top spans by FLOPs ===\n";
  out += RowsTable(by_flops).ToAscii();
  out += "=== run report: top spans by allocated bytes ===\n";
  out += RowsTable(by_bytes).ToAscii();
  out += "totals (top-level spans): wall ";
  out += Table::Num(static_cast<double>(total_wall_us) / 1e3, 2);
  out += " ms, flops ";
  out += Table::Num(static_cast<double>(total_flops) / 1e6, 2);
  out += " M, alloc ";
  out += Table::Num(static_cast<double>(total_alloc_bytes) /
                        (1024.0 * 1024.0),
                    2);
  out += " MB\n";
  return out;
}

std::string RunReport::ToJson() const {
  std::string out = "{\"focus_run_report\":1,";
  out += "\"total_wall_us\":" + std::to_string(total_wall_us);
  out += ",\"total_flops\":" + std::to_string(total_flops);
  out += ",\"total_alloc_bytes\":" + std::to_string(total_alloc_bytes);
  out += ",";
  AppendRowsJson(out, "by_wall", by_wall);
  out += ",";
  AppendRowsJson(out, "by_flops", by_flops);
  out += ",";
  AppendRowsJson(out, "by_bytes", by_bytes);
  out += "}\n";
  return out;
}

namespace {
void SetReportConfig(bool print_table, const std::string& json_path) {
  std::lock_guard<std::mutex> lock(g_report_mu);
  g_report_print = print_table;
  g_report_json_path = json_path;
  if (!g_report_atexit_registered) {
    g_report_atexit_registered = true;
    std::atexit(EmitAtExit);
  }
}
}  // namespace

void ConfigureRunReport(bool print_table, const std::string& json_path) {
  if (!print_table && json_path.empty()) return;
  SetReportConfig(print_table, json_path);
  Tracer::Get().Enable();
}

bool ConfigureRunReportFromEnv() {
  const std::string path = GetEnvOr("FOCUS_REPORT_JSON", "");
  if (path.empty()) return false;
  SetReportConfig(/*print_table=*/false, path);
  return true;
}

void ApplyReportFlag(const FlagParser& flags) {
  const bool print = flags.GetBool("report", false);
  std::string json_path = flags.GetString("report-json", "");
  if (json_path == "true") json_path = "run_report.json";
  ConfigureRunReport(print, json_path);
}

}  // namespace prof
}  // namespace obs
}  // namespace focus
