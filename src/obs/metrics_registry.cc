#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "tensor/allocator.h"

namespace focus {
namespace obs {

namespace {

// Small flat stores keep first-use order for export; metric sets are tiny
// (dozens of names), so linear search beats a map in practice.
template <typename V>
V* Find(std::vector<std::pair<std::string, V>>& entries,
        const std::string& name) {
  for (auto& entry : entries) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

template <typename V>
const V* Find(const std::vector<std::pair<std::string, V>>& entries,
              const std::string& name) {
  for (const auto& entry : entries) {
    if (entry.first == name) return &entry.second;
  }
  return nullptr;
}

double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));
  return sorted[std::min(n - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::AddCounter(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (int64_t* value = Find(counters_, name)) {
    *value += delta;
  } else {
    counters_.emplace_back(name, delta);
  }
}

int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t* value = Find(counters_, name);
  return value ? *value : 0;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (double* slot = Find(gauges_, name)) {
    *slot = value;
  } else {
    gauges_.emplace_back(name, value);
  }
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double* value = Find(gauges_, name);
  return value ? *value : 0.0;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::vector<double>* samples = Find(histograms_, name)) {
    samples->push_back(value);
  } else {
    histograms_.emplace_back(name, std::vector<double>{value});
  }
}

MetricsRegistry::HistogramSummary MetricsRegistry::Summarize(
    const std::string& name) const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const std::vector<double>* s = Find(histograms_, name)) samples = *s;
  }
  HistogramSummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.count = static_cast<int64_t>(samples.size());
  summary.min = samples.front();
  summary.max = samples.back();
  double total = 0.0;
  for (double v : samples) total += v;
  summary.mean = total / static_cast<double>(samples.size());
  summary.p50 = NearestRank(samples, 0.50);
  summary.p95 = NearestRank(samples, 0.95);
  summary.p99 = NearestRank(samples, 0.99);
  return summary;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::Counters()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

std::vector<std::pair<std::string, MetricsRegistry::HistogramSummary>>
MetricsRegistry::Histograms() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(histograms_.size());
    for (const auto& entry : histograms_) names.push_back(entry.first);
  }
  std::vector<std::pair<std::string, HistogramSummary>> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    out.emplace_back(name, Summarize(name));
  }
  return out;
}

void MetricsRegistry::ResetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::vector<double>* samples = Find(histograms_, name)) {
    samples->clear();
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void PublishAllocatorMetrics() {
  // Counters in the registry are cumulative; the allocator's counters are
  // process-cumulative too, so publish only the delta since the previous
  // publication (guarded for concurrent publishers).
  static std::mutex publish_mu;
  static AllocatorStats last;
  std::lock_guard<std::mutex> lock(publish_mu);
  const AllocatorStats now = Allocator::Get().Stats();
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.AddCounter("alloc/hits", now.hits - last.hits);
  registry.AddCounter("alloc/misses", now.misses - last.misses);
  registry.AddCounter("alloc/frees_cached",
                      now.frees_cached - last.frees_cached);
  registry.AddCounter("alloc/frees_released",
                      now.frees_released - last.frees_released);
  registry.AddCounter("alloc/trims", now.trims - last.trims);
  registry.SetGauge("alloc/cached_bytes",
                    static_cast<double>(now.cached_bytes));
  registry.SetGauge("alloc/raw_bytes", static_cast<double>(now.raw_bytes));
  last = now;
}

}  // namespace obs
}  // namespace focus
