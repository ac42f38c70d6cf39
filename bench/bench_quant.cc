// int8proto accuracy-budget gate + efficiency recording.
//
// Sweeps the Table III datasets with the FOCUS model: trains once in f32,
// then evaluates the SAME trained model under each inference precision
// (FOCUS_PRECISION: f32, then int8 prototype assignment) and records the
// MSE deltas against the f32 reference into the unified bench-result
// schema. int8proto has a hard committed MSE budget below; any
// violation prints loudly and exits
// nonzero, which is how ctest turns this binary into the accuracy gate
// (label "quant" — see tests/CMakeLists.txt and the precision leg of
// scripts/check.sh).
//
// Entry names:
//   quant_mse/<dataset>/<precision>  ns_per_op carries the MSE
//   BM_QuantForecastPlanned/<lookback>/<precision>  steady-state planned
//       forward latency on the fig6 compact config; bytes_per_op is the
//       plan's measured per-replay operand traffic (PlanStats
//       bytes_per_run)
//   BM_QuantServe/<precision>  closed-loop saturated forecasts/sec on a
//       serving engine at that precision (one engine per tenant tier)
//
// --smoke: two datasets, capped train steps, short measure windows — the
// ctest entry. Full runs record results/BENCH_quant.json via
// --focus-bench-json=<path>.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/focus_model.h"
#include "core/planned_forecaster.h"
#include "harness/experiments.h"
#include "obs/bench_report.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "tensor/precision.h"

namespace focus {
namespace {

// Hard MSE budget, every dataset: the absolute increase over the f32
// MSE an int8proto evaluation may show on the z-scored test windows.
// int8 rounding of the assignment operands may flip borderline tokens
// to a neighbouring prototype; the budget leaves ~10x headroom over the
// measured deltas (see results/BENCH_quant.json for the recorded runs).
constexpr double kInt8ProtoBudget = 0.05;

constexpr Precision kSweep[] = {Precision::kF32, Precision::kInt8Proto};

// --- accuracy sweep ---------------------------------------------------------

int RunAccuracy(bool smoke, obs::BenchReport& report) {
  harness::ExperimentProfile profile = harness::MakeProfile();
  if (smoke && profile.train_steps > 40) profile.train_steps = 40;
  const int64_t horizon = 96;

  std::vector<std::string> datasets = data::PaperDatasetNames();
  if (smoke) datasets = {"ETTh1", "PEMS04"};

  int violations = 0;
  std::printf("=== quant accuracy gate (horizon=%ld, %s) ===\n",
              static_cast<long>(horizon), smoke ? "smoke" : "full");
  std::printf("%-12s %-10s %12s %12s %12s %6s\n", "dataset", "precision",
              "mse", "delta_f32", "budget", "ok");
  for (const std::string& dataset : datasets) {
    auto data = harness::PrepareDataset(dataset, profile);
    auto model = harness::BuildModel("FOCUS", data, profile.lookback,
                                     horizon, profile);
    // Train once in f32; the sweep below re-evaluates the same frozen
    // weights, so every delta is purely the inference-precision effect.
    (void)harness::TrainAndEvaluate(*model, data, profile.lookback, horizon,
                                    profile);
    const auto test = harness::TestWindows(data, profile.lookback, horizon);
    double mse_f32 = 0.0;
    for (Precision precision : kSweep) {
      PrecisionGuard guard(precision);
      const auto m = harness::EvaluateModel(*model, test, profile.eval_batch,
                                            profile.eval_stride);
      if (precision == Precision::kF32) mse_f32 = m.mse;
      const double delta = m.mse - mse_f32;
      const double allowed =
          precision == Precision::kInt8Proto ? kInt8ProtoBudget : 0.0;
      const bool ok = precision == Precision::kF32 || delta <= allowed;
      if (!ok) ++violations;
      std::printf("%-12s %-10s %12.6f %12.6f %12.6f %6s\n", dataset.c_str(),
                  PrecisionName(precision), m.mse, delta, allowed,
                  ok ? "yes" : "NO");
      obs::BenchEntry entry;
      entry.name = "quant_mse/" + dataset + "/" + PrecisionName(precision);
      entry.ns_per_op = m.mse;  // the gate axis carries the MSE here
      entry.label = PrecisionName(precision);
      report.entries.push_back(std::move(entry));
    }
  }
  return violations;
}

// --- latency probe (fig6 compact config) ------------------------------------

core::FocusModel MakeCompactModel(int64_t lookback) {
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

void RunLatency(bool smoke, obs::BenchReport& report) {
  std::vector<int64_t> lookbacks = smoke ? std::vector<int64_t>{96}
                                         : std::vector<int64_t>{96, 512};
  const int iters = smoke ? 50 : 400;
  std::printf("=== planned forward latency (fig6 compact config) ===\n");
  std::printf("%-40s %12s %14s\n", "config", "ns_per_op", "bytes_per_run");
  for (int64_t lookback : lookbacks) {
    for (Precision precision : kSweep) {
      PrecisionGuard guard(precision);
      core::FocusModel model = MakeCompactModel(lookback);
      model.SetTraining(false);
      Rng rng(11);
      Tensor x = Tensor::Randn({1, 8, lookback}, rng);
      core::PlannedForecaster forecaster(&model);
      (void)forecaster.Forward(x);  // capture + compile outside the timing
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) (void)forecaster.Forward(x);
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
      const plan::ExecutionPlan* plan = forecaster.plan_for(x.shape());
      const double bytes =
          plan != nullptr ? static_cast<double>(plan->stats().bytes_per_run)
                          : 0.0;
      obs::BenchEntry entry;
      entry.name = "BM_QuantForecastPlanned/" + std::to_string(lookback) +
                   "/" + PrecisionName(precision);
      entry.ns_per_op = ns;
      entry.bytes_per_op = bytes;
      entry.threads =
          static_cast<double>(ThreadPool::Global().num_threads());
      entry.label = PrecisionName(precision);
      std::printf("%-40s %12.0f %14.0f\n", entry.name.c_str(), ns, bytes);
      report.entries.push_back(std::move(entry));
    }
  }
}

// --- serving saturation point -----------------------------------------------

void RunServe(bool smoke, obs::BenchReport& report) {
  const int64_t lookback = 96;
  const int64_t entities = 8;
  const int clients = 4;
  const double warmup_s = smoke ? 0.05 : 0.15;
  const double measure_s = smoke ? 0.2 : 0.6;
  core::FocusModel model = MakeCompactModel(lookback);
  model.SetTraining(false);
  std::printf("=== saturated serving throughput per precision tier ===\n");
  std::printf("%-32s %14s\n", "config", "forecasts/s");
  for (Precision precision : kSweep) {
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.precision = precision;
    serve::ForecastEngine engine(&model, entities, lookback, opts);

    std::vector<Tensor> windows;
    for (int i = 0; i < 4; ++i) {
      Rng rng(100 + i);
      windows.push_back(Tensor::Randn({entities, lookback}, rng));
    }
    std::atomic<bool> stop{false};
    std::atomic<int64_t> completed{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          (void)engine.Forecast(windows[i % windows.size()]);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    const int64_t before = completed.load();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(measure_s));
    const int64_t after = completed.load();
    const auto t1 = std::chrono::steady_clock::now();
    stop.store(true);
    for (std::thread& t : threads) t.join();
    engine.Shutdown();

    const double per_sec = static_cast<double>(after - before) /
                           std::chrono::duration<double>(t1 - t0).count();
    obs::BenchEntry entry;
    entry.name = std::string("BM_QuantServe/") + PrecisionName(precision);
    entry.ns_per_op = per_sec > 0.0 ? 1e9 / per_sec : 0.0;
    entry.items_per_second = per_sec;
    entry.threads = 1.0;
    entry.label = PrecisionName(precision);
    std::printf("%-32s %14.1f\n", entry.name.c_str(), per_sec);
    report.entries.push_back(std::move(entry));
  }
}

int Run(bool smoke, const std::string& json_path) {
  obs::BenchReport report = obs::MakeBenchReport(
      static_cast<int>(ThreadPool::Global().num_threads()));
  report.note = smoke ? "bench_quant --smoke" : "bench_quant";

  const int violations = RunAccuracy(smoke, report);
  RunLatency(smoke, report);
  RunServe(smoke, report);

  if (!json_path.empty()) {
    const Status status = obs::WriteBenchReport(report, json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_quant: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("bench report written to %s (%zu entries)\n",
                json_path.c_str(), report.entries.size());
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "bench_quant: %d accuracy-budget violation(s) — reduced "
                 "precision exceeded its committed MSE budget\n",
                 violations);
    return 1;
  }
  std::printf("accuracy gate passed: every precision within budget\n");
  return 0;
}

}  // namespace
}  // namespace focus

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  const std::string kJsonFlag = "--focus-bench-json=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind(kJsonFlag, 0) == 0) {
      json_path = arg.substr(kJsonFlag.size());
    } else {
      std::fprintf(stderr,
                   "bench_quant: unknown argument '%s' "
                   "(want --smoke / --focus-bench-json=<path>)\n",
                   arg.c_str());
      return 2;
    }
  }
  return focus::Run(smoke, json_path);
}
