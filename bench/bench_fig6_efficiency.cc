// Fig. 6 — FLOPs, peak memory occupation and parameter count vs. input
// length for all 8 models, plus FOCUS's per-component breakdown.
//
// Models are probed untrained (efficiency is training-independent) on a
// Traffic-shaped input. The reproduction target: FOCUS's FLOPs and peak
// memory grow linearly in L and sit below the attention baselines, whose
// all-pairs terms grow super-linearly.
//
// The per-component section attributes FLOPs / peak memory / wall-clock to
// the embed / branch / fusion spans via obs::TraceSpan self-FLOPs, and
// exits nonzero unless they account for the forward exactly: the root
// span's FLOPs equal the forward's FlopScope delta, the non-kernel spans'
// self-FLOPs sum to the root's FLOPs, and every focus/* stage is nonzero.
//
// --bench-json=<path> additionally records every (model, L) latency/FLOP
// probe in the unified bench-result schema (obs/bench_report.h) so
// scripts/bench_diff.py can gate efficiency regressions across PRs.
// --plan-json=<path> records the planned-vs-eager single-thread latency
// section (src/plan execution path) in the same schema; the committed
// recording lives at results/BENCH_plan.json.
#include <algorithm>
#include <cstdio>

#include "core/planned_forecaster.h"
#include "harness/experiments.h"
#include "metrics/metrics.h"
#include "obs/bench_report.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/flops.h"
#include "utils/flags.h"
#include "utils/stopwatch.h"
#include "utils/table.h"

int main(int argc, char** argv) {
  using namespace focus;
  FlagParser flags(argc, argv);
  obs::ApplyTraceFlag(flags);
  const std::string bench_json = flags.GetString("bench-json", "");
  obs::BenchReport bench_report = obs::MakeBenchReport(
      static_cast<int>(ThreadPool::Global().num_threads()));
  bench_report.note = "fig6 efficiency probes (1 fwd pass, batch 1)";
  auto profile = harness::MakeProfile();
  const std::vector<int64_t> lengths = {96, 192, 384, 512, 768};
  const int64_t horizon = 96;

  auto data = harness::PrepareDataset("Traffic", profile);
  const int64_t n = data.dataset.num_entities();

  std::printf("=== Fig. 6: FLOPs / peak memory / params vs input length ===\n");
  std::printf("entities=%ld horizon=%ld batch=1\n", static_cast<long>(n),
              static_cast<long>(horizon));

  Table table({"Model", "L", "FLOPs(M)", "PeakMem(MB)", "Params(K)",
               "Latency(ms)"});
  Rng rng(7);
  for (const auto& model_name : harness::ModelZooNames()) {
    for (int64_t length : lengths) {
      auto model =
          harness::BuildModel(model_name, data, length, horizon, profile);
      Tensor sample = Tensor::Randn({1, n, length}, rng);
      auto report = metrics::ProbeEfficiency(*model, sample);
      table.AddRow({model_name, std::to_string(length),
                    Table::Num(report.flops / 1e6, 2),
                    Table::Num(report.peak_bytes / (1024.0 * 1024.0), 2),
                    Table::Num(report.parameters / 1e3, 1),
                    Table::Num(report.latency_ms, 1)});
      obs::BenchEntry entry;
      entry.name = "fig6/" + model_name + "/L=" + std::to_string(length);
      entry.ns_per_op = report.latency_ms * 1e6;
      if (report.latency_ms > 0.0) {
        // flops / (latency_ms * 1e6) == GFLOP/s achieved by the probe.
        entry.gflops = static_cast<double>(report.flops) /
                       (report.latency_ms * 1e6);
      }
      entry.threads = static_cast<double>(bench_report.threads);
      entry.label = bench_report.simd_backend;
      bench_report.entries.push_back(std::move(entry));
    }
  }
  std::printf("%s", table.ToAscii().c_str());

  // Growth-factor summary: FLOPs(768) / FLOPs(96) per model — 8x is
  // perfectly linear; attention baselines exceed it.
  std::printf("FLOPs growth factor L=96 -> L=768 (8x input):\n");
  for (const auto& model_name : harness::ModelZooNames()) {
    auto small =
        harness::BuildModel(model_name, data, 96, horizon, profile);
    auto large =
        harness::BuildModel(model_name, data, 768, horizon, profile);
    Tensor x_small = Tensor::Randn({1, n, 96}, rng);
    Tensor x_large = Tensor::Randn({1, n, 768}, rng);
    const double f_small =
        static_cast<double>(metrics::ProbeEfficiency(*small, x_small).flops);
    const double f_large =
        static_cast<double>(metrics::ProbeEfficiency(*large, x_large).flops);
    std::printf("  %-14s %.1fx\n", model_name.c_str(), f_large / f_small);
  }

  // Planned-vs-eager single-thread forecast latency on the same fig6
  // configs: eager is the inference-mode tape-free path, planned replays
  // a compiled execution plan (static slab, folded constants, zero
  // allocator calls). Both are best-of-3 after one warm-up; single
  // thread isolates the plan's overhead removal from pool scaling.
  const std::string plan_json = flags.GetString("plan-json", "");
  obs::BenchReport plan_report = obs::MakeBenchReport(1);
  plan_report.note =
      "planned vs eager single-thread forecast latency (fig6 configs)";
  std::printf("\n=== Planned vs eager inference latency (1 thread) ===\n");
  const int pool_threads =
      static_cast<int>(ThreadPool::Global().num_threads());
  ThreadPool::Global().Resize(1);
  Table plan_table({"Model", "L", "Eager(ms)", "Planned(ms)", "Speedup"});
  for (const std::string model_name : {"FOCUS", "PatchTST", "DLinear"}) {
    for (int64_t length : lengths) {
      auto model =
          harness::BuildModel(model_name, data, length, horizon, profile);
      model->SetTraining(false);
      Tensor sample = Tensor::Randn({1, n, length}, rng);
      const int reps = 3;
      double eager_ms = 1e30;
      {
        InferenceModeGuard inference;
        model->Forward(sample);  // warm (allocator caches, code paths)
        for (int r = 0; r < reps; ++r) {
          Stopwatch timer;
          model->Forward(sample);
          eager_ms = std::min(eager_ms, timer.ElapsedMillis());
        }
      }
      core::PlannedForecaster planned(model.get());
      planned.Forward(sample);  // capture + compile outside the timing
      double planned_ms = 1e30;
      for (int r = 0; r < reps; ++r) {
        Stopwatch timer;
        planned.Forward(sample);
        planned_ms = std::min(planned_ms, timer.ElapsedMillis());
      }
      const bool was_planned = planned.last_was_planned();
      plan_table.AddRow({model_name, std::to_string(length),
                         Table::Num(eager_ms, 2), Table::Num(planned_ms, 2),
                         was_planned
                             ? Table::Num(eager_ms / planned_ms, 2) + "x"
                             : std::string("(eager fallback)")});
      for (const char* path : {"eager", "planned"}) {
        obs::BenchEntry entry;
        entry.name = "plan/" + model_name + "/L=" + std::to_string(length) +
                     "/" + path;
        entry.ns_per_op =
            (path[0] == 'e' ? eager_ms : planned_ms) * 1e6;
        entry.threads = 1.0;
        entry.label = plan_report.simd_backend;
        plan_report.entries.push_back(std::move(entry));
      }
    }
  }
  ThreadPool::Global().Resize(pool_threads);
  std::printf("%s", plan_table.ToAscii().c_str());
  if (!plan_json.empty()) {
    const Status status = obs::WriteBenchReport(plan_report, plan_json);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_fig6: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("plan report written to %s (%zu entries)\n",
                plan_json.c_str(), plan_report.entries.size());
  }

  // FOCUS per-component attribution via obs::TraceSpan self-FLOPs, checked
  // to account for the whole forward with nothing lost or counted twice.
  std::printf("\nFOCUS per-component breakdown (TraceSpan self-FLOPs):\n");
  auto& tracer = obs::Tracer::Get();
  const bool was_enabled = tracer.enabled();
  tracer.Enable();
  bool identity_ok = true;
  Table breakdown({"L", "Component", "FLOPs(M)", "PeakMem(MB)", "Wall(ms)"});
  for (int64_t length : {96, 384, 768}) {
    auto model = harness::BuildModel("FOCUS", data, length, horizon, profile);
    model->SetTraining(false);
    Tensor sample = Tensor::Randn({1, n, length}, rng);
    tracer.Clear();
    int64_t forward_flops = 0;
    {
      InferenceModeGuard inference;
      obs::TraceSpan root("fig6/forward");
      FlopScope scope;
      model->Forward(sample);
      forward_flops = scope.Elapsed();
    }
    const std::vector<obs::SpanEvent> events = tracer.Snapshot();
    int64_t root_flops = -1, self_sum = 0;
    for (const obs::SpanEvent& ev : events) {
      if (ev.name == "fig6/forward") root_flops = ev.flops;
      if (ev.name.rfind("kernel/", 0) != 0) self_sum += ev.self_flops;
    }
    if (root_flops != forward_flops || self_sum != root_flops) {
      identity_ok = false;
    }
    int stages = 0;
    for (const auto& [name, stats] : obs::AggregateSpans(events)) {
      if (name.rfind("focus/", 0) != 0) continue;
      if (stats.self_flops > 0) ++stages;
      breakdown.AddRow({std::to_string(length), name,
                        Table::Num(stats.self_flops / 1e6, 2),
                        Table::Num(stats.peak_bytes / (1024.0 * 1024.0), 2),
                        Table::Num(stats.wall_us / 1e3, 2)});
    }
    if (stages != 5) identity_ok = false;
  }
  if (!was_enabled) tracer.Disable();
  std::printf("%s", breakdown.ToAscii().c_str());
  std::printf("span self-FLOPs sum to the forward's FLOPs: %s\n",
              identity_ok ? "OK" : "MISMATCH");
  if (!bench_json.empty()) {
    const Status status = obs::WriteBenchReport(bench_report, bench_json);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_fig6: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("bench report written to %s (%zu entries)\n",
                bench_json.c_str(), bench_report.entries.size());
  }
  return identity_ok ? 0 : 1;
}
