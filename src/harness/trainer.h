// Training / evaluation loops shared by every experiment binary.
#ifndef FOCUS_HARNESS_TRAINER_H_
#define FOCUS_HARNESS_TRAINER_H_

#include "core/forecast_model.h"
#include "data/window.h"
#include "metrics/metrics.h"

namespace focus {
namespace harness {

struct TrainConfig {
  int64_t max_steps = 60;
  int64_t batch_size = 6;
  float lr = 5e-3f;
  float weight_decay = 1e-5f;
  float clip_norm = 5.0f;
  uint64_t seed = 1;
  bool verbose = false;
  // Optional validation-driven early stopping: evaluate on `val` every
  // `eval_every` steps, stop after `patience` evaluations without
  // improvement, and restore the best checkpoint at the end.
  const data::WindowDataset* val = nullptr;
  int64_t eval_every = 25;
  int64_t patience = 3;
};

struct TrainResult {
  float first_loss = 0.0f;
  float final_loss = 0.0f;
  int64_t steps = 0;
  double seconds = 0.0;
  // Per-step wall-clock percentiles, sourced from the obs::MetricsRegistry
  // "train/step_ms" histogram (reset at the start of each TrainModel call).
  double step_ms_p50 = 0.0;
  double step_ms_p95 = 0.0;
  // Populated when TrainConfig::val is set.
  double best_val_mse = 0.0;
  bool early_stopped = false;
};

// AdamW training over shuffled window batches; runs max_steps gradient
// steps (epochs wrap around as needed).
TrainResult TrainModel(ForecastModel& model, const data::WindowDataset& train,
                       const TrainConfig& config);

// Inference-mode MSE/MAE over the window set, subsampled by `stride`
// (stride 1 = every window).
metrics::ForecastMetrics EvaluateModel(ForecastModel& model,
                                       const data::WindowDataset& windows,
                                       int64_t batch_size = 8,
                                       int64_t stride = 1);

}  // namespace harness
}  // namespace focus

#endif  // FOCUS_HARNESS_TRAINER_H_
