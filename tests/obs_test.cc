// Unit tests for the obs subsystem: TraceSpan attribution, Chrome-trace
// export, the disabled path, and the MetricsRegistry.
#include "obs/trace.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "tensor/allocator.h"
#include "tensor/flops.h"
#include "tensor/memory.h"
#include "tensor/tensor.h"

namespace focus {
namespace {

// Finds the aggregate for `name`, failing the test if absent.
obs::SpanStats StatsFor(
    const std::vector<std::pair<std::string, obs::SpanStats>>& agg,
    const std::string& name) {
  for (const auto& [n, stats] : agg) {
    if (n == name) return stats;
  }
  ADD_FAILURE() << "no span named " << name;
  return {};
}

// Minimal structural JSON check: every brace/bracket outside of strings
// balances, and the document is a single object. Enough to catch broken
// escaping or truncated output without a full parser.
bool JsonBalanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false, escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      stack.push_back(c);
    } else if (c == '}' || c == ']') {
      if (stack.empty()) return false;
      const char open = stack.back();
      stack.pop_back();
      if ((c == '}') != (open == '{')) return false;
    }
  }
  return stack.empty() && !in_string;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// Every test runs with a clean tracer and counters, and leaves tracing off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
    FlopCounter::Reset();
  }
  void TearDown() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
    FlopCounter::Reset();
  }
};

TEST_F(ObsTest, NestedSpansAttributeToInnermostScope) {
  auto& tracer = obs::Tracer::Get();
  tracer.Enable();
  const int64_t tensor_bytes =
      static_cast<int64_t>(sizeof(float)) * 256;
  {
    obs::TraceSpan outer("test/outer");
    FlopCounter::Add(1000);
    {
      obs::TraceSpan inner("test/inner");
      FlopCounter::Add(500);
      Tensor scratch = Tensor::Zeros({256});  // peaks inside `inner`
    }
    FlopCounter::Add(200);
  }
  tracer.Disable();

  const auto agg = obs::AggregateSpans(tracer.Snapshot());
  const auto outer = StatsFor(agg, "test/outer");
  const auto inner = StatsFor(agg, "test/inner");

  EXPECT_EQ(inner.flops, 500);
  EXPECT_EQ(inner.self_flops, 500);
  EXPECT_EQ(outer.flops, 1700);       // inclusive of inner
  EXPECT_EQ(outer.self_flops, 1200);  // exclusive of inner
  EXPECT_GE(inner.peak_bytes, tensor_bytes);
  EXPECT_GE(outer.peak_bytes, tensor_bytes);
  EXPECT_GE(inner.allocs, 1);
}

TEST_F(ObsTest, SpanPeakWindowDoesNotLowerOuterPeak) {
  // An outer observer (metrics::ProbeEfficiency) must still see the true
  // high-water mark after spans reset and restore it.
  auto& tracer = obs::Tracer::Get();
  MemoryStats::ResetPeak();
  const int64_t baseline_peak = MemoryStats::PeakBytes();
  tracer.Enable();
  {
    obs::TraceSpan span("test/peak");
    Tensor scratch = Tensor::Zeros({1024});
  }
  tracer.Disable();
  EXPECT_GE(MemoryStats::PeakBytes(),
            baseline_peak + static_cast<int64_t>(sizeof(float)) * 1024);
}

TEST_F(ObsTest, ChromeTraceExportRoundTrip) {
  auto& tracer = obs::Tracer::Get();
  tracer.Enable();
  {
    obs::TraceSpan span("test/export \"quoted\"");
    FlopCounter::Add(42);
  }
  obs::MetricsRegistry::Get().SetGauge("test/gauge", 1.5);

  const std::string path = "obs_test_trace.json";
  tracer.SetOutput(path);
  ASSERT_TRUE(tracer.Flush().ok());
  tracer.SetOutput("");
  tracer.Disable();

  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonBalanced(text));
  EXPECT_EQ(text.find_first_not_of(" \n"), text.find('{'));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("test/export \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\"flops\":42"), std::string::npos);
  EXPECT_NE(text.find("\"peak_bytes\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_us\""), std::string::npos);
  EXPECT_NE(text.find("\"focusMetrics\""), std::string::npos);
  EXPECT_NE(text.find("\"test/gauge\":1.5"), std::string::npos);
}

TEST_F(ObsTest, ChromeTraceExportCarriesEverySpan) {
  auto& tracer = obs::Tracer::Get();
  tracer.Enable();
  {
    obs::TraceSpan span("test/first");
    FlopCounter::Add(7);
  }
  {
    obs::TraceSpan span("test/second");
    FlopCounter::Add(9);
  }

  const std::string path = "obs_test_spans.json";
  tracer.SetOutput(path);
  ASSERT_TRUE(tracer.Flush().ok());
  tracer.SetOutput("");
  tracer.Disable();

  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonBalanced(text));
  // Each span is one complete ("X") event carrying its own args.
  for (const auto& [name, flops] :
       {std::pair<std::string, int>{"test/first", 7}, {"test/second", 9}}) {
    const size_t at = text.find("\"name\":\"" + name + "\"");
    ASSERT_NE(at, std::string::npos) << name;
    const size_t end = text.find('\n', at);
    const std::string event = text.substr(at, end - at);
    EXPECT_NE(event.find("\"ph\":\"X\""), std::string::npos) << event;
    EXPECT_NE(event.find("\"flops\":" + std::to_string(flops)),
              std::string::npos)
        << event;
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNothingButStillCounts) {
  auto& tracer = obs::Tracer::Get();
  ASSERT_FALSE(tracer.enabled());
  {
    obs::TraceSpan span("test/disabled");
    FlopCounter::Add(123);
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  // The global counter is independent of tracing.
  EXPECT_EQ(FlopCounter::Count(), 123);
}

TEST_F(ObsTest, AggregateSpansPreservesFirstUseOrder) {
  // Regression: AggregateSpans() reports names in first-use order, not
  // sorted; RunReport and bench_fig6's breakdown rely on it.
  auto& tracer = obs::Tracer::Get();
  tracer.Enable();
  for (const char* name : {"zeta", "alpha", "mid", "zeta"}) {
    obs::TraceSpan span(name);
    FlopCounter::Add(1);
  }
  tracer.Disable();
  const auto agg = obs::AggregateSpans(tracer.Snapshot());
  std::vector<std::string> names;
  for (const auto& [name, stats] : agg) names.push_back(name);
  const std::vector<std::string> expected = {"zeta", "alpha", "mid"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(StatsFor(agg, "zeta").count, 2);
}

TEST_F(ObsTest, SpansAndExportsCarryAllocatorCounters) {
  Allocator& alloc = Allocator::Get();
  const int64_t prev_cap = alloc.cap_bytes();
  alloc.SetCapBytes(64 * (int64_t{1} << 20));
  auto& tracer = obs::Tracer::Get();
  tracer.Enable();
  {
    obs::TraceSpan warm("test/alloc_warm");
    Tensor a = Tensor::Zeros({2048});
  }  // `a`'s buffer is now parked on a free list
  {
    obs::TraceSpan reuse("test/alloc_reuse");
    Tensor b = Tensor::Zeros({2048});  // same class: recycled
  }

  const auto agg = obs::AggregateSpans(tracer.Snapshot());
  EXPECT_GE(StatsFor(agg, "test/alloc_reuse").alloc_hits, 1);

  const std::string path = "obs_test_alloc.json";
  tracer.SetOutput(path);
  ASSERT_TRUE(tracer.Flush().ok());  // publishes alloc/* into the registry
  tracer.SetOutput("");
  tracer.Disable();

  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"alloc_hits\""), std::string::npos);
  EXPECT_NE(text.find("\"alloc_misses\""), std::string::npos);
  EXPECT_NE(text.find("\"alloc/hits\""), std::string::npos);
  EXPECT_NE(text.find("\"alloc/cached_bytes\""), std::string::npos);
  EXPECT_GE(obs::MetricsRegistry::Get().CounterValue("alloc/hits"), 1);

  alloc.Trim();
  alloc.SetCapBytes(prev_cap);
}

TEST_F(ObsTest, MetricsRegistryCountersGaugesPercentiles) {
  auto& registry = obs::MetricsRegistry::Get();
  registry.AddCounter("test/count");
  registry.AddCounter("test/count", 4);
  EXPECT_EQ(registry.CounterValue("test/count"), 5);

  registry.SetGauge("test/g", 2.0);
  registry.SetGauge("test/g", 3.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("test/g"), 3.5);

  registry.ResetHistogram("test/h");
  for (int i = 1; i <= 100; ++i) {
    registry.Observe("test/h", static_cast<double>(i));
  }
  const auto summary = registry.Summarize("test/h");
  EXPECT_EQ(summary.count, 100);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 100.0);
  EXPECT_DOUBLE_EQ(summary.p50, 50.0);
  EXPECT_DOUBLE_EQ(summary.p95, 95.0);
  EXPECT_DOUBLE_EQ(summary.p99, 99.0);
  registry.ResetHistogram("test/h");
  EXPECT_EQ(registry.Summarize("test/h").count, 0);
}

TEST_F(ObsTest, HistogramPercentilesNearestRank) {
  // Pin the nearest-rank contract on a known distribution: with ten
  // samples 10..100, rank(q) = ceil(q*n) one-indexed, so p50 is the 5th
  // sample and p95 the 10th. A switch to interpolation would silently
  // change every reported step-time percentile; this test makes that a
  // visible decision.
  auto& registry = obs::MetricsRegistry::Get();
  registry.ResetHistogram("test/ranks");
  for (int i = 10; i <= 100; i += 10) {
    registry.Observe("test/ranks", static_cast<double>(i));
  }
  const auto ten = registry.Summarize("test/ranks");
  EXPECT_EQ(ten.count, 10);
  EXPECT_DOUBLE_EQ(ten.p50, 50.0);
  EXPECT_DOUBLE_EQ(ten.p95, 100.0);
  EXPECT_DOUBLE_EQ(ten.p99, 100.0);
  EXPECT_DOUBLE_EQ(ten.mean, 55.0);

  // A single sample is every percentile at once.
  registry.ResetHistogram("test/ranks");
  registry.Observe("test/ranks", 7.0);
  const auto one = registry.Summarize("test/ranks");
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p95, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);

  // Insertion order must not matter: observe descending, summarize sorted.
  registry.ResetHistogram("test/ranks");
  for (int i = 100; i >= 1; --i) {
    registry.Observe("test/ranks", static_cast<double>(i));
  }
  const auto descending = registry.Summarize("test/ranks");
  EXPECT_DOUBLE_EQ(descending.min, 1.0);
  EXPECT_DOUBLE_EQ(descending.p50, 50.0);
  EXPECT_DOUBLE_EQ(descending.p95, 95.0);
  EXPECT_DOUBLE_EQ(descending.p99, 99.0);
  registry.ResetHistogram("test/ranks");
}

TEST_F(ObsTest, HistogramConcurrentObserveAndSummarize) {
  // Hammer one histogram from 4 then 8 recorder threads while the main
  // thread concurrently summarizes — under the TSan matrix (check.sh
  // tsan leg re-runs obs_test) any lock hole in Observe/Summarize/Reset
  // becomes a reported race; under plain builds the final count/min/max
  // still pin the no-lost-update contract.
  auto& registry = obs::MetricsRegistry::Get();
  constexpr int kPerThread = 1000;
  for (int num_threads : {4, 8}) {
    registry.ResetHistogram("test/stress");
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
      workers.emplace_back([&registry, t] {
        for (int i = 0; i < kPerThread; ++i) {
          registry.Observe("test/stress",
                           static_cast<double>(t * kPerThread + i));
        }
      });
    }
    // Concurrent reads must observe a consistent snapshot: count grows
    // monotonically and min/max stay inside the produced range.
    int64_t last_count = 0;
    for (int probe = 0; probe < 50; ++probe) {
      const auto mid = registry.Summarize("test/stress");
      EXPECT_GE(mid.count, last_count);
      last_count = mid.count;
      if (mid.count > 0) {
        EXPECT_GE(mid.min, 0.0);
        EXPECT_LE(mid.max, static_cast<double>(num_threads * kPerThread - 1));
      }
    }
    for (auto& worker : workers) worker.join();
    const auto final_summary = registry.Summarize("test/stress");
    EXPECT_EQ(final_summary.count, num_threads * kPerThread);
    EXPECT_DOUBLE_EQ(final_summary.min, 0.0);
    EXPECT_DOUBLE_EQ(final_summary.max,
                     static_cast<double>(num_threads * kPerThread - 1));
    // Uniform 0..N-1: nearest-rank p50 sits at ceil(N/2)-1.
    EXPECT_DOUBLE_EQ(final_summary.p50,
                     static_cast<double>(num_threads * kPerThread / 2 - 1));
  }
  registry.ResetHistogram("test/stress");
}

}  // namespace
}  // namespace focus
