// Kernel microbenchmarks (google-benchmark): matmul / softmax throughput,
// ProtoAttn vs full self-attention scaling in the token count (the paper's
// O(kl) vs O(l^2) claim at kernel granularity), and offline clustering
// throughput. The hot kernels additionally report achieved GFLOP/s and the
// active FOCUS_SIMD backend (JSON `label`), so scalar-vs-AVX2 runs are
// directly comparable.
//
// Output: besides google-benchmark's console/JSON output, the binary can
// emit the unified bench-result schema (obs/bench_report.h) that
// scripts/bench_diff.py consumes: pass --focus-bench-json=<path>. --smoke
// restricts the run to one fast shape per hot kernel family with a short
// min-time — the perf leg of scripts/check.sh uses it to gate regressions
// against results/BENCH_smoke_baseline.json.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/segment_clustering.h"
#include "core/focus_model.h"
#include "core/planned_forecaster.h"
#include "core/proto_attn.h"
#include "nn/attention.h"
#include "obs/bench_report.h"
#include "optim/optimizer.h"
#include "parallel/thread_pool.h"
#include "tensor/allocator.h"
#include "tensor/ops.h"
#include "tensor/simd/vec.h"

namespace focus {
namespace {

// Every benchmark reports the pool size so serial/pooled runs recorded with
// different FOCUS_NUM_THREADS are distinguishable in the JSON output.
void ReportThreads(benchmark::State& state) {
  state.counters["threads"] =
      static_cast<double>(ThreadPool::Global().num_threads());
}

// Achieved GFLOP/s from the op's true per-iteration FLOP count (the same
// figure FlopCounter records), plus the active SIMD backend as the run
// label.
void ReportGflops(benchmark::State& state, int64_t flops_per_iter) {
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(flops_per_iter) *
          static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetLabel(simd::BackendName());
}

// Operand bytes moved per op (inputs read + outputs written, ideal
// cache behaviour). Feeds the schema's optional bytes_per_op field so
// bench_diff can attribute a speedup to bytes-moved reduction.
void ReportBytes(benchmark::State& state, int64_t bytes_per_iter) {
  state.counters["bytes_per_op"] = static_cast<double>(bytes_per_iter);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  ReportGflops(state, 2 * n * n * n);
  ReportBytes(state, 3 * n * n * 4);  // A + B read, C written, f32
  ReportThreads(state);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Batched matmul at the shapes the fig6 efficiency bench drives through
// ProtoAttn / the transformer baselines: (B, l, d) @ (B, d, d).
void BM_MatMulBatched(benchmark::State& state) {
  const int64_t b = state.range(0), l = state.range(1), d = state.range(2);
  Rng rng(1);
  Tensor a = Tensor::Randn({b, l, d}, rng);
  Tensor w = Tensor::Randn({b, d, d}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, w).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * l * d * d);
  ReportGflops(state, 2 * b * l * d * d);
  ReportBytes(state, (b * l * d + b * d * d + b * l * d) * 4);
  ReportThreads(state);
}
BENCHMARK(BM_MatMulBatched)->Args({32, 96, 64})->Args({8, 512, 64});

// Narrow-output matmul at the serve_short (ETTh1) shapes, where n = 6 is
// under one 8-lane vector: ProtoAttn's Eq. 16 scores C_Q K^T as
// (16, 64) @ (7, 64, 6) (args m=16, batched_a=0) and the readout scores
// as (7, 2, 64) @ (7, 64, 6) (m=2, batched_a=1). Every output column is
// in the matmul kernel's column tail.
void BM_MatMulNarrow(benchmark::State& state) {
  const int64_t m = state.range(0);
  const bool batched_a = state.range(1) != 0;
  const int64_t batch = 7, k = 64, n = 6;
  Rng rng(1);
  Tensor a = batched_a ? Tensor::Randn({batch, m, k}, rng)
                       : Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({batch, k, n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * m * k * n);
  ReportGflops(state, 2 * batch * m * k * n);
  ReportBytes(state, (a.numel() + b.numel() + batch * m * n) * 4);
  ReportThreads(state);
}
BENCHMARK(BM_MatMulNarrow)->Args({16, 0})->Args({2, 1});

void BM_Conv1d(benchmark::State& state) {
  const int64_t B = state.range(0), C = state.range(1), L = state.range(2);
  Rng rng(1);
  Tensor x = Tensor::Randn({B, C, L}, rng);
  Tensor w = Tensor::Randn({C, C, 3}, rng);
  Tensor bias = Tensor::Randn({C}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Conv1d(x, w, bias, /*stride=*/1, /*padding=*/1, /*dilation=*/1)
            .data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * B * C * L * C * 3);
  ReportThreads(state);
}
BENCHMARK(BM_Conv1d)->Args({16, 32, 96})->Args({16, 64, 512});

void BM_LayerNormLastDim(benchmark::State& state) {
  const int64_t rows = state.range(0), n = state.range(1);
  Rng rng(1);
  Tensor x = Tensor::Randn({rows, n}, rng);
  Tensor gamma = Tensor::Ones({n});
  Tensor beta = Tensor::Zeros({n});
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LayerNormLastDim(x, gamma, beta, 1e-5f).data());
  }
  state.SetItemsProcessed(state.iterations() * rows * n);
  ReportGflops(state, 8 * rows * n);  // FlopCounter's layernorm figure
  ReportThreads(state);
}
BENCHMARK(BM_LayerNormLastDim)->Args({3072, 64})->Args({4096, 512});

void BM_SoftmaxLastDim(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::Randn({n, n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxLastDim(x).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  ReportGflops(state, 5 * n * n);  // FlopCounter's softmax figure
  ReportThreads(state);
}
BENCHMARK(BM_SoftmaxLastDim)->Arg(128)->Arg(512);

// Elementwise transcendental throughput: Exp over a large contiguous
// tensor. Pre-SIMD this was a std::exp loop; the vector layer evaluates
// the shared polynomial 8 lanes at a time.
void BM_ElementwiseExp(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor x = Tensor::Randn({n}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Exp(x).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  ReportGflops(state, 2 * n);  // FlopCounter's elementwise-unary figure
  ReportBytes(state, 2 * n * 4);  // x read, y written
  ReportThreads(state);
}
BENCHMARK(BM_ElementwiseExp)->Arg(1 << 16)->Arg(1 << 20);

// Raw kernel-table exp: no tensor allocation, no autograd, no pool — the
// cost of the vectorized polynomial itself, elements/second.
void BM_VecExp(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> x(static_cast<size_t>(n));
  std::vector<float> y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] =
        -10.0f + 20.0f * static_cast<float>(i) / static_cast<float>(n);
  }
  const auto kern = simd::Kernels().exp_fwd;
  for (auto _ : state) {
    kern(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::BackendName());
}
BENCHMARK(BM_VecExp)->Arg(4096)->Arg(1 << 16);

// ProtoAttn forward cost as the token count l grows: expect ~linear time.
void BM_ProtoAttnForward(benchmark::State& state) {
  const int64_t l = state.range(0);
  const int64_t p = 16, d = 64, k = 16;
  Rng rng(3);
  auto embed = std::make_shared<nn::Linear>(p, d, rng);
  Tensor protos = Tensor::Randn({k, p}, rng);
  core::ProtoAttn attn(protos, embed, d, 0.2f, rng);
  Tensor raw = Tensor::Randn({1, l, p}, rng);
  Tensor emb = embed->Forward(raw).Detach();
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(raw, emb).data());
  }
  state.SetItemsProcessed(state.iterations() * l);
}
BENCHMARK(BM_ProtoAttnForward)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Full self-attention forward cost: expect ~quadratic time in l.
void BM_SelfAttnForward(benchmark::State& state) {
  const int64_t l = state.range(0);
  const int64_t d = 64;
  Rng rng(4);
  nn::MultiheadSelfAttention attn(d, 4, rng);
  Tensor x = Tensor::Randn({1, l, d}, rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.Forward(x).data());
  }
  state.SetItemsProcessed(state.iterations() * l);
}
BENCHMARK(BM_SelfAttnForward)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Offline clustering throughput (segments / second).
void BM_SegmentClustering(benchmark::State& state) {
  const int64_t num_segments = state.range(0);
  Rng rng(5);
  Tensor segments = Tensor::Randn({num_segments, 16}, rng);
  for (auto _ : state) {
    cluster::ClusteringConfig cfg;
    cfg.segment_length = 16;
    cfg.num_prototypes = 8;
    cfg.max_iters = 5;
    cfg.refine_steps = 5;
    cfg.seed = 6;
    auto result = cluster::SegmentClustering(cfg).Fit(segments);
    benchmark::DoNotOptimize(result.prototypes.data());
  }
  state.SetItemsProcessed(state.iterations() * num_segments);
}
BENCHMARK(BM_SegmentClustering)->Arg(512)->Arg(2048);

void BM_NearestPrototypeAssignment(benchmark::State& state) {
  const int64_t num_segments = state.range(0);
  Rng rng(7);
  Tensor segments = Tensor::Randn({num_segments, 16}, rng);
  Tensor protos = Tensor::Randn({16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::SegmentClustering::Assign(segments, protos, 0.2f));
  }
  state.SetItemsProcessed(state.iterations() * num_segments);
  ReportThreads(state);
}
BENCHMARK(BM_NearestPrototypeAssignment)->Arg(1024)->Arg(8192);

// Allocation-churn microbench for the caching allocator: a full train step
// (forward, backward, AdamW) whose activations/gradients are ~35 MB each —
// past glibc's mmap-threshold ceiling, so with the cache bypassed every
// step pays mmap/munmap round trips and page-fault-plus-zero storms for
// the same shapes it just freed. Arg = FOCUS_ALLOC_CACHE_MB equivalent
// (set programmatically): 0 = bypass (seed behaviour), 512 = cached.
// steps/sec is items_per_second; alloc_hits / alloc_misses show where the
// buffers came from. The elementwise chain keeps per-step compute cheap so
// the allocator path dominates the delta; outputs are bit-identical
// across both settings (tests/parity_test.cc enforces this).
void BM_TrainStepLoop(benchmark::State& state) {
  const int64_t cap_mb = state.range(0);
  Allocator& alloc = Allocator::Get();
  const int64_t prev_cap = alloc.cap_bytes();
  alloc.SetCapBytes(cap_mb * (int64_t{1} << 20));
  const AllocatorStats before = alloc.Stats();

  // 2048 x 4224 floats = 34.6 MB: above DEFAULT_MMAP_THRESHOLD_MAX (32 MiB
  // on 64-bit glibc), so a system allocation can never be malloc-cached.
  Rng rng(21);
  Tensor x = Tensor::Randn({2048, 4224}, rng);
  x.SetRequiresGrad(true);
  Tensor w = Tensor::Full({1}, 0.5f);
  w.SetRequiresGrad(true);
  optim::AdamW opt({w}, /*lr=*/1e-3f);

  for (auto _ : state) {
    opt.ZeroGrad();
    x.ZeroGrad();
    Tensor h = Mul(x, x);
    Tensor h2 = Add(h, x);
    Tensor h3 = Sub(h2, h);
    Tensor loss = Mul(SumAll(h3), w);
    loss.Backward();
    opt.Step();
    benchmark::DoNotOptimize(loss.data());
  }
  state.SetItemsProcessed(state.iterations());

  const AllocatorStats after = alloc.Stats();
  state.counters["cap_mb"] = static_cast<double>(cap_mb);
  state.counters["alloc_hits"] = static_cast<double>(after.hits - before.hits);
  state.counters["alloc_misses"] =
      static_cast<double>(after.misses - before.misses);
  ReportThreads(state);
  alloc.Trim();
  alloc.SetCapBytes(prev_cap);
}
BENCHMARK(BM_TrainStepLoop)->Arg(0)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Planned vs eager inference on a compact FOCUS configuration — the
// execution-plan layer's end-to-end effect (no tape bookkeeping, zero
// allocator calls, folded constant subgraphs). The planned numbers are
// steady state: capture + compile happen once before the timed loop.
core::FocusModel MakeBenchFocusModel(int64_t lookback) {
  core::FocusConfig cfg;
  cfg.lookback = lookback;
  cfg.horizon = 24;
  cfg.num_entities = 8;
  cfg.patch_len = 16;
  cfg.d_model = 64;
  cfg.readout_queries = 6;
  cfg.seed = 9;
  Rng rng(10);
  return core::FocusModel(cfg, Tensor::Randn({16, 16}, rng));
}

void BM_FocusForecastEager(benchmark::State& state) {
  const int64_t lookback = state.range(0);
  core::FocusModel model = MakeBenchFocusModel(lookback);
  model.SetTraining(false);
  Rng rng(11);
  Tensor x = Tensor::Randn({1, 8, lookback}, rng);
  InferenceModeGuard inference;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(x).data());
  }
  state.SetItemsProcessed(state.iterations());
  ReportThreads(state);
}
BENCHMARK(BM_FocusForecastEager)->Arg(96)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_FocusForecastPlanned(benchmark::State& state) {
  const int64_t lookback = state.range(0);
  core::FocusModel model = MakeBenchFocusModel(lookback);
  model.SetTraining(false);
  Rng rng(11);
  Tensor x = Tensor::Randn({1, 8, lookback}, rng);
  core::PlannedForecaster planned(&model);
  planned.Forward(x);  // capture + compile outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(planned.Forward(x).data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["planned"] = planned.last_was_planned() ? 1.0 : 0.0;
  ReportThreads(state);
}
BENCHMARK(BM_FocusForecastPlanned)->Arg(96)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// Console reporter that additionally captures every finished run as a
// schema entry (obs/bench_report.h). ns_per_op comes from the raw
// accumulated real time so entries are comparable regardless of each
// benchmark's display time unit.
class SchemaCaptureReporter : public benchmark::ConsoleReporter {
 public:
  using ConsoleReporter::ConsoleReporter;

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      obs::BenchEntry entry;
      entry.name = run.benchmark_name();
      if (run.iterations > 0) {
        entry.ns_per_op = run.real_accumulated_time * 1e9 /
                          static_cast<double>(run.iterations);
      }
      entry.label = run.report_label;
      // Counters are finalized (rates already divided by time) before
      // reporters see them.
      auto it = run.counters.find("gflops");
      if (it != run.counters.end()) entry.gflops = it->second.value;
      it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        entry.items_per_second = it->second.value;
      }
      it = run.counters.find("threads");
      if (it != run.counters.end()) entry.threads = it->second.value;
      it = run.counters.find("bytes_per_op");
      if (it != run.counters.end()) entry.bytes_per_op = it->second.value;
      entries.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<obs::BenchEntry> entries;
};

}  // namespace
}  // namespace focus

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> args;
  const std::string kJsonFlag = "--focus-bench-json=";
  const std::string kColorFlag = "--benchmark_color=";
  std::string color = "auto";
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kColorFlag, 0) == 0) color = arg.substr(kColorFlag.size());
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg.rfind(kJsonFlag, 0) == 0) {
      json_path = arg.substr(kJsonFlag.size());
      continue;
    }
    args.push_back(argv[i]);
  }
  // --smoke: one fast shape per hot kernel family, short min-time. The
  // strings must outlive Initialize (it keeps the pointers).
  static std::string smoke_filter =
      "--benchmark_filter="
      "BM_MatMul/256$|BM_MatMulBatched/32/96/64$|BM_MatMulNarrow/16/0$|"
      "BM_Conv1d/16/32/96$|"
      "BM_LayerNormLastDim/3072/64$|BM_SoftmaxLastDim/128$|"
      "BM_ElementwiseExp/65536$|BM_ProtoAttnForward/64$|"
      "BM_NearestPrototypeAssignment/1024$|BM_FocusForecastEager/96$|"
      "BM_FocusForecastPlanned/96$";
  static std::string smoke_min_time = "--benchmark_min_time=0.05";
  if (smoke) {
    args.push_back(smoke_filter.data());
    args.push_back(smoke_min_time.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  // A reporter handed to RunSpecifiedBenchmarks keeps the options it was
  // built with, so --benchmark_color is resolved here as the library's
  // own console reporter resolves it: "auto" colours a terminal only.
  const bool use_color = color == "auto"
                             ? isatty(STDOUT_FILENO) != 0
                             : color == "true" || color == "yes" ||
                                   color == "1";
  focus::SchemaCaptureReporter reporter(
      use_color ? benchmark::ConsoleReporter::OO_ColorTabular
                : benchmark::ConsoleReporter::OO_Tabular);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    focus::obs::BenchReport report = focus::obs::MakeBenchReport(
        static_cast<int>(focus::ThreadPool::Global().num_threads()));
    report.note = smoke ? "bench_kernels --smoke" : "bench_kernels";
    report.entries = std::move(reporter.entries);
    const focus::Status status =
        focus::obs::WriteBenchReport(report, json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_kernels: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("bench report written to %s (%zu entries)\n",
                json_path.c_str(), report.entries.size());
  }
  benchmark::Shutdown();
  return 0;
}
