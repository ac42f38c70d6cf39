#include "obs/bench_report.h"

#include <cstdio>
#include <cstdlib>
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
  // %.17g round-trips doubles exactly, so Parse(ToJson(r)) == r.
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

// --- minimal exact-shape parsing helpers ------------------------------------

// Finds `"key":` at or after `from` and returns the index just past the
// colon, or npos.
size_t FindKey(const std::string& json, const std::string& key,
               size_t from) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  return at == std::string::npos ? at : at + needle.size();
}

bool ParseStringAt(const std::string& json, size_t at, std::string* out) {
  if (at == std::string::npos || at >= json.size() || json[at] != '"') {
    return false;
  }
  std::string value;
  for (size_t i = at + 1; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\\' && i + 1 < json.size()) {
      const char n = json[++i];
      switch (n) {
        case 'n': value += '\n'; break;
        case 't': value += '\t'; break;
        default: value += n; break;
      }
      continue;
    }
    if (c == '"') {
      *out = std::move(value);
      return true;
    }
    value += c;
  }
  return false;
}

bool ParseNumberAt(const std::string& json, size_t at, double* out) {
  if (at == std::string::npos || at >= json.size()) return false;
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + at, &end);
  if (end == json.c_str() + at) return false;
  *out = v;
  return true;
}

bool GetString(const std::string& json, const std::string& key, size_t from,
               std::string* out) {
  return ParseStringAt(json, FindKey(json, key, from), out);
}

bool GetNumber(const std::string& json, const std::string& key, size_t from,
               double* out) {
  return ParseNumberAt(json, FindKey(json, key, from), out);
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

bool ParseBenchReport(const std::string& json, BenchReport* out) {
  double schema = 0.0;
  if (!GetNumber(json, "focus_bench_schema", 0, &schema)) return false;
  // Future schema revisions must fail loudly here, not half-parse.
  if (schema != 1.0) return false;
  out->schema = static_cast<int>(schema);
  GetString(json, "date", 0, &out->date);
  GetString(json, "note", 0, &out->note);
  GetString(json, "cpu_model", 0, &out->cpu_model);
  double num_cpus = 0.0;
  if (GetNumber(json, "num_cpus", 0, &num_cpus)) {
    out->num_cpus = static_cast<int>(num_cpus);
  }
  GetString(json, "git_sha", 0, &out->git_sha);
  GetString(json, "simd_backend", 0, &out->simd_backend);
  GetString(json, "build_type", 0, &out->build_type);
  const size_t build_at = FindKey(json, "build", 0);
  double threads = 0.0;
  if (build_at != std::string::npos &&
      GetNumber(json, "threads", build_at, &threads)) {
    out->threads = static_cast<int>(threads);
  }
  const size_t list_at = FindKey(json, "benchmarks", 0);
  if (list_at == std::string::npos) return false;
  out->entries.clear();
  size_t cursor = json.find('[', list_at);
  if (cursor == std::string::npos) return false;
  while (true) {
    const size_t open = json.find('{', cursor);
    const size_t close_list = json.find(']', cursor);
    if (open == std::string::npos || close_list < open) break;
    const size_t close = json.find('}', open);
    if (close == std::string::npos) return false;
    const std::string obj = json.substr(open, close - open + 1);
    BenchEntry entry;
    if (!GetString(obj, "name", 0, &entry.name)) return false;
    if (!GetNumber(obj, "ns_per_op", 0, &entry.ns_per_op)) return false;
    GetNumber(obj, "gflops", 0, &entry.gflops);
    GetNumber(obj, "items_per_second", 0, &entry.items_per_second);
    GetNumber(obj, "threads", 0, &entry.threads);
    GetNumber(obj, "bytes_per_op", 0, &entry.bytes_per_op);
    GetString(obj, "label", 0, &entry.label);
    out->entries.push_back(std::move(entry));
    cursor = close + 1;
  }
  return true;
}

}  // namespace obs
}  // namespace focus
