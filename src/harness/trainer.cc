#include "harness/trainer.h"

#include <limits>

#include "nn/serialize.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "utils/logging.h"
#include "utils/stopwatch.h"

namespace focus {
namespace harness {

TrainResult TrainModel(ForecastModel& model, const data::WindowDataset& train,
                       const TrainConfig& config) {
  Stopwatch timer;
  Rng rng(config.seed);
  optim::AdamW opt(model.Parameters(), config.lr, config.weight_decay);
  model.SetTraining(true);

  // Step-time percentiles describe this run only.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.ResetHistogram("train/step_ms");

  TrainResult result;
  result.best_val_mse = std::numeric_limits<double>::max();
  std::vector<std::vector<float>> best_snapshot;
  int64_t evals_without_improvement = 0;

  int64_t step = 0;
  bool stop = false;
  while (step < config.max_steps && !stop) {
    auto batches = data::MakeBatches(train.NumWindows(), config.batch_size,
                                     &rng);
    for (const auto& indices : batches) {
      if (step >= config.max_steps) break;
      Stopwatch step_timer;
      float loss_val = 0.0f;
      float grad_norm = 0.0f;
      {
        obs::TraceSpan span("train_step");
        data::Batch batch = train.GetBatch(indices);
        opt.ZeroGrad();
        Tensor loss = MseLoss(model.Forward(batch.x), batch.y);
        loss_val = loss.Item();
        loss.Backward();
        grad_norm = optim::ClipGradNorm(opt.params(), config.clip_norm);
        opt.Step();
      }
      if (step == 0) result.first_loss = loss_val;
      result.final_loss = loss_val;
      ++step;
      registry.Observe("train/step_ms", step_timer.ElapsedMillis());
      registry.AddCounter("train/steps");
      registry.SetGauge("train/loss", loss_val);
      registry.SetGauge("train/grad_norm", grad_norm);
      if (config.verbose && step % 10 == 0) {
        FOCUS_LOG(Info) << model.name() << " step " << step << " loss "
                        << loss_val;
      }

      // Validation-driven early stopping.
      if (config.val != nullptr && step % config.eval_every == 0) {
        auto val_metrics = EvaluateModel(model, *config.val,
                                         config.batch_size, /*stride=*/4);
        if (val_metrics.mse < result.best_val_mse) {
          result.best_val_mse = val_metrics.mse;
          best_snapshot = nn::SnapshotParameters(model);
          evals_without_improvement = 0;
        } else if (++evals_without_improvement >= config.patience) {
          result.early_stopped = true;
          stop = true;
          break;
        }
      }
    }
  }
  if (config.val != nullptr && !best_snapshot.empty()) {
    nn::RestoreParameters(model, best_snapshot);
  }
  result.steps = step;
  result.seconds = timer.ElapsedSeconds();
  // Mirror the caching allocator's run-so-far counters into the registry on
  // every normal trainer exit — not only via Tracer::Flush() — so runs
  // without FOCUS_TRACE still end with final alloc/* values queryable from
  // MetricsRegistry (EvaluateModel does the same for eval-only runs).
  obs::PublishAllocatorMetrics();
  const auto step_ms = registry.Summarize("train/step_ms");
  result.step_ms_p50 = step_ms.p50;
  result.step_ms_p95 = step_ms.p95;
  if (config.verbose) {
    FOCUS_LOG(Info) << model.name() << " step time p50 " << result.step_ms_p50
                    << " ms, p95 " << result.step_ms_p95 << " ms over "
                    << result.steps << " steps";
  }
  return result;
}

metrics::ForecastMetrics EvaluateModel(ForecastModel& model,
                                       const data::WindowDataset& windows,
                                       int64_t batch_size, int64_t stride) {
  FOCUS_CHECK_GT(stride, 0);
  obs::TraceSpan span("eval");
  Stopwatch timer;
  const bool was_training = model.training();
  model.SetTraining(false);
  // Inference mode: evaluation must neither build tape nodes nor
  // allocate gradient buffers (MakeResult asserts the former).
  InferenceModeGuard inference;
  metrics::ForecastMetrics metrics;
  int64_t windows_evaluated = 0;
  std::vector<int64_t> indices;
  for (int64_t w = 0; w < windows.NumWindows(); w += stride) {
    indices.push_back(w);
    if (static_cast<int64_t>(indices.size()) == batch_size) {
      data::Batch batch = windows.GetBatch(indices);
      metrics.Accumulate(model.Forward(batch.x), batch.y);
      windows_evaluated += static_cast<int64_t>(indices.size());
      indices.clear();
    }
  }
  if (!indices.empty()) {
    data::Batch batch = windows.GetBatch(indices);
    metrics.Accumulate(model.Forward(batch.x), batch.y);
    windows_evaluated += static_cast<int64_t>(indices.size());
  }
  metrics.Finalize();
  model.SetTraining(was_training);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.AddCounter("eval/windows", windows_evaluated);
  registry.SetGauge("eval/mse", metrics.mse);
  registry.SetGauge("eval/mae", metrics.mae);
  const double seconds = timer.ElapsedSeconds();
  if (seconds > 0.0) {
    registry.SetGauge("eval/windows_per_sec",
                      static_cast<double>(windows_evaluated) / seconds);
  }
  // Keep alloc/* fresh for evaluation-only runs (no TrainModel exit and
  // possibly no Tracer::Flush to publish them).
  obs::PublishAllocatorMetrics();
  return metrics;
}

}  // namespace harness
}  // namespace focus
