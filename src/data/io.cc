#include "data/io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace focus {
namespace data {

namespace {

// Parses "key=value" pairs separated by '|' from the metadata line
// (values may contain spaces, e.g. frequency "5 mins").
std::map<std::string, std::string> ParseMeta(const std::string& line) {
  std::map<std::string, std::string> meta;
  std::stringstream ss(line);
  std::string token;
  while (std::getline(ss, token, '|')) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      meta[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return meta;
}

// Parses a split fraction: the whole string must be one finite number in
// (0, 1). Returns false otherwise (std::stod would throw instead).
bool ParseFraction(const std::string& text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v) ||
      v <= 0.0 || v >= 1.0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

Status SaveCsv(const TimeSeriesDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << "#name=" << dataset.name << "|domain=" << dataset.domain
      << "|frequency=" << dataset.frequency
      << "|train=" << dataset.train_fraction
      << "|val=" << dataset.val_fraction << "\n";
  const int64_t n = dataset.num_entities(), t = dataset.num_steps();
  for (int64_t e = 0; e < n; ++e) {
    out << (e ? "," : "") << "entity" << e;
  }
  out << "\n";
  const float* values = dataset.values.data();
  char buf[48];
  for (int64_t i = 0; i < t; ++i) {
    std::string line;
    for (int64_t e = 0; e < n; ++e) {
      std::snprintf(buf, sizeof(buf), "%.6g", values[e * t + i]);
      if (e) line += ",";
      line += buf;
    }
    out << line << "\n";
  }
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

StatusOr<TimeSeriesDataset> LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);

  TimeSeriesDataset dataset;
  dataset.name = "csv";
  dataset.domain = "Unknown";
  dataset.frequency = "unknown";

  std::string line;
  if (!std::getline(in, line)) return Status::Corruption("empty file " + path);

  // Optional metadata comment.
  if (!line.empty() && line[0] == '#') {
    auto meta = ParseMeta(line.substr(1));
    if (meta.count("name")) dataset.name = meta["name"];
    if (meta.count("domain")) dataset.domain = meta["domain"];
    if (meta.count("frequency")) dataset.frequency = meta["frequency"];
    for (const auto& [key, field] :
         {std::pair{"train", &dataset.train_fraction},
          std::pair{"val", &dataset.val_fraction}}) {
      if (meta.count(key) && !ParseFraction(meta[key], field)) {
        return Status::Corruption("bad " + std::string(key) + "='" +
                                  meta[key] + "' in " + path);
      }
    }
    if (dataset.train_fraction + dataset.val_fraction >= 1.0) {
      return Status::Corruption("train + val must be < 1 in " + path);
    }
    if (!std::getline(in, line)) {
      return Status::Corruption("missing header in " + path);
    }
  }

  // Header row: count columns.
  int64_t num_entities = 1;
  for (char c : line) num_entities += c == ',';
  if (num_entities <= 0) return Status::Corruption("bad header in " + path);

  std::vector<float> column_major;  // appended row by row, transposed later
  int64_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    int64_t cols = 0;
    while (std::getline(ss, cell, ',')) {
      char* end = nullptr;
      const float v = std::strtof(cell.c_str(), &end);
      if (end == cell.c_str()) {
        return Status::Corruption("non-numeric cell '" + cell + "' in " +
                                  path);
      }
      column_major.push_back(v);
      ++cols;
    }
    if (cols != num_entities) {
      return Status::Corruption("ragged row in " + path);
    }
    ++rows;
  }
  if (rows < 2) return Status::Corruption("too few rows in " + path);

  // Transpose (rows = steps, cols = entities) into (N, T).
  dataset.values = Tensor::Empty({num_entities, rows});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t e = 0; e < num_entities; ++e) {
      dataset.values.data()[e * rows + i] =
          column_major[static_cast<size_t>(i * num_entities + e)];
    }
  }
  return dataset;
}

}  // namespace data
}  // namespace focus
