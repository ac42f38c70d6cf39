// Tests for the profiling subsystem (src/obs/prof) and the unified bench
// schema: roofline fields in the span export, RunReport top-N ordering and
// JSON shape, and the bench-report JSON text.
#include "obs/prof/run_report.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bench_report.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace focus {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Structural check: braces/brackets outside strings balance and the
// document is a single object. Catches broken escaping without a parser.
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

obs::SpanEvent MakeEvent(const std::string& name, int64_t wall_us,
                         int64_t flops, int64_t alloc_bytes,
                         int32_t depth = 0) {
  obs::SpanEvent ev;
  ev.name = name;
  ev.depth = depth;
  ev.wall_us = wall_us;
  ev.flops = flops;
  ev.self_flops = flops;
  ev.alloc_bytes = alloc_bytes;
  return ev;
}

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Tracer::Get().Clear(); }
  void TearDown() override {
    auto& tracer = obs::Tracer::Get();
    tracer.SetOutput("");
    tracer.Disable();
    tracer.Clear();
  }
};

TEST_F(ProfTest, SpansExportRooflineFields) {
  // Every exported span carries the always-on roofline fields next to the
  // FLOPs it attributes.
  auto& tracer = obs::Tracer::Get();
  tracer.Enable();
  {
    obs::TraceSpan span("prof_test/roofline");
    Tensor a = Tensor::Ones({64, 64});
    Tensor b = MatMul(a, a);
    (void)b;
  }
  const auto events = tracer.Snapshot();
  bool found = false;
  for (const auto& ev : events) {
    if (ev.name != "prof_test/roofline") continue;
    found = true;
    EXPECT_GT(ev.flops, 0);
  }
  EXPECT_TRUE(found);

  const std::string path = "prof_test_roofline.json";
  tracer.SetOutput(path);
  ASSERT_TRUE(tracer.Flush().ok());
  tracer.SetOutput("");
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(JsonBalanced(text));
  EXPECT_NE(text.find("prof_test/roofline"), std::string::npos);
  EXPECT_NE(text.find("\"gflops\":"), std::string::npos);
  EXPECT_NE(text.find("\"arith_intensity\":"), std::string::npos);
}

TEST_F(ProfTest, DerivedMetricsZeroSafe) {
  obs::SpanEvent empty;
  EXPECT_DOUBLE_EQ(obs::prof::AchievedGflops(empty), 0.0);
  EXPECT_DOUBLE_EQ(obs::prof::ArithmeticIntensity(empty), 0.0);

  // 2e9 FLOPs in 1 second = 2 GFLOP/s; 2e9 FLOPs over 1e9 bytes = 2 F/B.
  obs::SpanEvent ev = MakeEvent("x", 1000000, 2000000000, 1000000000);
  EXPECT_DOUBLE_EQ(obs::prof::AchievedGflops(ev), 2.0);
  EXPECT_DOUBLE_EQ(obs::prof::ArithmeticIntensity(ev), 2.0);
}

TEST_F(ProfTest, RunReportTopNOrdering) {
  // Three axes rank independently: slow has the wall-clock, hot the
  // FLOPs, fat the bytes. top_n=2 must keep exactly the two largest per
  // axis, descending.
  std::vector<obs::SpanEvent> events;
  events.push_back(MakeEvent("slow", 9000, 10, 10));
  events.push_back(MakeEvent("hot", 100, 5000000, 20));
  events.push_back(MakeEvent("fat", 200, 20, 4000000));
  events.push_back(MakeEvent("mid", 500, 1000, 1000));

  const obs::prof::RunReport report =
      obs::prof::BuildRunReport(events, /*top_n=*/2);
  ASSERT_EQ(report.by_wall.size(), 2u);
  EXPECT_EQ(report.by_wall[0].name, "slow");
  EXPECT_EQ(report.by_wall[1].name, "mid");
  ASSERT_EQ(report.by_flops.size(), 2u);
  EXPECT_EQ(report.by_flops[0].name, "hot");
  EXPECT_EQ(report.by_flops[1].name, "mid");
  ASSERT_EQ(report.by_bytes.size(), 2u);
  EXPECT_EQ(report.by_bytes[0].name, "fat");
  EXPECT_EQ(report.by_bytes[1].name, "mid");

  // Totals sum top-level events only.
  EXPECT_EQ(report.total_wall_us, 9000 + 100 + 200 + 500);
  EXPECT_EQ(report.total_flops, 10 + 5000000 + 20 + 1000);
  EXPECT_EQ(report.total_alloc_bytes, 10 + 20 + 4000000 + 1000);
}

TEST_F(ProfTest, RunReportAggregatesRepeatsAndSkipsNestedTotals) {
  std::vector<obs::SpanEvent> events;
  events.push_back(MakeEvent("step", 100, 1000, 64));
  events.push_back(MakeEvent("step", 300, 3000, 64));
  // Nested event: aggregated into its row but excluded from run totals
  // (its parent's inclusive numbers already cover it).
  events.push_back(MakeEvent("inner", 50, 500, 32, /*depth=*/1));

  const obs::prof::RunReport report = obs::prof::BuildRunReport(events, 5);
  ASSERT_FALSE(report.by_wall.empty());
  EXPECT_EQ(report.by_wall[0].name, "step");
  EXPECT_EQ(report.by_wall[0].count, 2);
  EXPECT_EQ(report.by_wall[0].wall_us, 400);
  EXPECT_EQ(report.total_wall_us, 400);  // inner (depth 1) not re-counted
  EXPECT_EQ(report.total_flops, 4000);
  EXPECT_EQ(report.total_alloc_bytes, 128);
}

TEST_F(ProfTest, RunReportJsonAndAsciiRender) {
  std::vector<obs::SpanEvent> events;
  events.push_back(MakeEvent("train_step", 2000, 4000000, 8192));
  const obs::prof::RunReport report = obs::prof::BuildRunReport(events, 5);

  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"focus_run_report\":1"), std::string::npos);
  EXPECT_NE(json.find("train_step"), std::string::npos);
  EXPECT_NE(json.find("\"by_wall\""), std::string::npos);
  EXPECT_NE(json.find("\"by_flops\""), std::string::npos);
  EXPECT_NE(json.find("\"by_bytes\""), std::string::npos);

  const std::string ascii = report.ToAscii();
  EXPECT_NE(ascii.find("train_step"), std::string::npos);
  EXPECT_NE(ascii.find("GFLOP/s"), std::string::npos);
}

// Span names are free text: the JSON report must escape them as the
// Chrome trace exporter does.
TEST_F(ProfTest, RunReportJsonEscapesSpanNames) {
  std::vector<obs::SpanEvent> events;
  events.push_back(MakeEvent("span \"q\" \\ x", 100, 1000, 64));
  const std::string json = obs::prof::BuildRunReport(events, 5).ToJson();
  EXPECT_NE(json.find(R"("name":"span \"q\" \\ x")"), std::string::npos)
      << json;
}

// A report with every field set by hand, so its JSON is fixed text.
obs::BenchReport PinnedBenchReport() {
  obs::BenchReport report;
  report.date = "2026-01-02T03:04:05Z";
  report.note = "pinned \"quoted\" note";
  report.cpu_model = "Test CPU @ 2.00GHz";
  report.num_cpus = 8;
  report.git_sha = "abc1234";
  report.simd_backend = "avx2";
  report.build_type = "Release";
  report.threads = 4;
  obs::BenchEntry full;
  full.name = "BM_MatMul/\"256\"";
  full.ns_per_op = 1234.5625;  // exactly representable
  full.gflops = 27.25;
  full.items_per_second = 1e9;
  full.threads = 4.0;
  full.bytes_per_op = 4096.0;
  full.label = "avx2\\fma";
  report.entries.push_back(full);
  obs::BenchEntry minimal;  // zero bytes_per_op: the field is omitted
  minimal.name = "BM_SoftmaxLastDim/128";
  minimal.ns_per_op = 50.0;
  report.entries.push_back(minimal);
  return report;
}

// The schema's exact text as committed under results/, with names,
// note and label escaped and doubles in round-trip %.17g form.
const char kPinnedBenchJson[] =
    R"json({"focus_bench_schema":1,"date":"2026-01-02T03:04:05Z",)json"
    R"json("note":"pinned \"quoted\" note",)json"
    R"json("machine":{"cpu_model":"Test CPU @ 2.00GHz","num_cpus":8},)json"
    R"json("build":{"git_sha":"abc1234","simd_backend":"avx2",)json"
    R"json("build_type":"Release","threads":4},"benchmarks":[)json"
    "\n"
    R"json({"name":"BM_MatMul/\"256\"","ns_per_op":1234.5625,)json"
    R"json("gflops":27.25,"items_per_second":1000000000,"threads":4,)json"
    R"json("bytes_per_op":4096,"label":"avx2\\fma"},)json"
    "\n"
    R"json({"name":"BM_SoftmaxLastDim/128","ns_per_op":50,"gflops":0,)json"
    R"json("items_per_second":0,"threads":0,"label":""})json"
    "\n]}\n";

TEST_F(ProfTest, BenchReportJsonMatchesSchemaText) {
  EXPECT_EQ(PinnedBenchReport().ToJson(), kPinnedBenchJson);
}

TEST_F(ProfTest, WriteBenchReportWritesToJsonBytes) {
  const std::string path = "prof_test_bench.json";
  ASSERT_TRUE(obs::WriteBenchReport(PinnedBenchReport(), path).ok());
  const std::string text = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(text, kPinnedBenchJson);
}

}  // namespace
}  // namespace focus
