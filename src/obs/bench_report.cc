#include "obs/bench_report.h"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>

#include "obs/trace.h"
#include "tensor/simd/vec.h"

#ifndef FOCUS_GIT_SHA
#define FOCUS_GIT_SHA "unknown"
#endif
#ifndef FOCUS_BUILD_TYPE
#define FOCUS_BUILD_TYPE "unknown"
#endif

namespace focus {
namespace obs {

namespace {

std::string FormatExact(double v) {
  char buf[64];
  // %.17g round-trips doubles exactly, so a reader gets back the recorded
  // value.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModelName() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        // Trim leading space and the trailing newline.
        while (!model.empty() && model.front() == ' ') model.erase(0, 1);
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == '\r')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

std::string IsoUtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

std::string BenchReport::ToJson() const {
  std::string out;
  out.reserve(entries.size() * 160 + 1024);
  out += "{\"focus_bench_schema\":" + std::to_string(schema);
  out += ",\"date\":\"";
  AppendEscaped(out, date);
  out += "\",\"note\":\"";
  AppendEscaped(out, note);
  out += "\",\"machine\":{\"cpu_model\":\"";
  AppendEscaped(out, cpu_model);
  out += "\",\"num_cpus\":" + std::to_string(num_cpus);
  out += "},\"build\":{\"git_sha\":\"";
  AppendEscaped(out, git_sha);
  out += "\",\"simd_backend\":\"";
  AppendEscaped(out, simd_backend);
  out += "\",\"build_type\":\"";
  AppendEscaped(out, build_type);
  out += "\",\"threads\":" + std::to_string(threads);
  out += "},\"benchmarks\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    if (i > 0) out += ",";
    out += "\n{\"name\":\"";
    AppendEscaped(out, e.name);
    out += "\",\"ns_per_op\":" + FormatExact(e.ns_per_op);
    out += ",\"gflops\":" + FormatExact(e.gflops);
    out += ",\"items_per_second\":" + FormatExact(e.items_per_second);
    out += ",\"threads\":" + FormatExact(e.threads);
    // Optional: omitted when not measured, so reports predating the
    // field byte-match their re-serialization.
    if (e.bytes_per_op > 0.0) {
      out += ",\"bytes_per_op\":" + FormatExact(e.bytes_per_op);
    }
    out += ",\"label\":\"";
    AppendEscaped(out, e.label);
    out += "\"}";
  }
  out += "\n]}\n";
  return out;
}

BenchReport MakeBenchReport(int threads) {
  BenchReport report;
  report.date = IsoUtcNow();
  report.cpu_model = CpuModelName();
  report.num_cpus =
      static_cast<int>(std::thread::hardware_concurrency());
  report.git_sha = FOCUS_GIT_SHA;
  report.simd_backend = simd::BackendName();
  report.build_type = FOCUS_BUILD_TYPE;
  report.threads = threads;
  return report;
}

Status WriteBenchReport(const BenchReport& report, const std::string& path) {
  const std::string payload = report.ToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open bench report file " + path);
  }
  const bool ok =
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  std::fclose(f);
  if (!ok) return Status::IoError("short write to bench report " + path);
  return Status::Ok();
}

}  // namespace obs
}  // namespace focus
