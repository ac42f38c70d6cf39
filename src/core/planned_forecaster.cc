#include "core/planned_forecaster.h"

#include <algorithm>

#include "obs/metrics_registry.h"
#include "utils/rng.h"

namespace focus {
namespace core {

PlannedForecaster::PlannedForecaster(ForecastModel* model)
    : model_(model) {
  FOCUS_CHECK(model_ != nullptr);
}

const plan::ExecutionPlan* PlannedForecaster::plan_for(
    const Shape& shape) const {
  for (const auto& [s, p] : plans_) {
    if (s == shape) return p.get();
  }
  return nullptr;
}

bool PlannedForecaster::KnownBadShape(const Shape& shape) {
  const simd::Backend backend = simd::ActiveBackend();
  for (auto it = failed_shapes_.begin(); it != failed_shapes_.end(); ++it) {
    if (it->first != shape) continue;
    if (it->second == backend) return true;
    // The capture failed under a different backend; forget the memo and
    // let the caller retry under the current one.
    failed_shapes_.erase(it);
    return false;
  }
  return false;
}

plan::ExecutionPlan* PlannedForecaster::CaptureShape(const Shape& shape,
                                                     const Tensor& example) {
  auto plan = plan::ExecutionPlan::Capture(
      [this](const Tensor& in) { return model_->Forward(in); }, example);
  if (plan == nullptr) {
    failed_shapes_.emplace_back(shape, simd::ActiveBackend());
    return nullptr;
  }
  plans_.emplace_back(shape, std::move(plan));
  return plans_.back().second.get();
}

int PlannedForecaster::Prewarm(const std::vector<Shape>& shapes) {
  int compiled = 0;
  for (const Shape& shape : shapes) {
    const plan::ExecutionPlan* existing = plan_for(shape);
    // A live plan for the current backend needs no work; a stale one is
    // dropped and recaptured exactly like Forward() would.
    if (existing != nullptr) {
      Rng probe_rng(1);
      Tensor probe = Tensor::Randn(shape, probe_rng);
      if (existing->Matches(probe)) continue;
      plans_.erase(std::remove_if(plans_.begin(), plans_.end(),
                                  [&](const auto& entry) {
                                    return entry.first == shape;
                                  }),
                   plans_.end());
    }
    if (KnownBadShape(shape)) continue;
    // The example's values are irrelevant to the captured program —
    // capture records kernel launches, not data — but they do flow
    // through the forward once, so use well-formed random windows.
    Rng rng(1);
    Tensor example = Tensor::Randn(shape, rng);
    if (CaptureShape(shape, example) != nullptr) {
      ++compiled;
      obs::MetricsRegistry::Get().AddCounter("plan/prewarm");
    }
  }
  return compiled;
}

int PlannedForecaster::PrewarmBatchSizes(
    const Shape& base_shape, const std::vector<int64_t>& batch_sizes) {
  FOCUS_CHECK(!base_shape.empty());
  std::vector<Shape> shapes;
  shapes.reserve(batch_sizes.size());
  for (int64_t b : batch_sizes) {
    FOCUS_CHECK_GT(b, 0) << "batch sizes must be positive";
    Shape shape = base_shape;
    shape[0] = b;
    shapes.push_back(std::move(shape));
  }
  return Prewarm(shapes);
}

Tensor PlannedForecaster::Forward(const Tensor& x) {
  FOCUS_CHECK(x.defined());
  for (auto& [shape, p] : plans_) {
    if (shape != x.shape()) continue;
    if (p->Matches(x)) {
      last_was_planned_ = true;
      return p->Run(x);
    }
    // Same shape but stale backend: drop and recapture below.
    plans_.erase(std::remove_if(plans_.begin(), plans_.end(),
                                [&](const auto& entry) {
                                  return entry.first == x.shape();
                                }),
                 plans_.end());
    break;
  }
  if (!KnownBadShape(x.shape())) {
    plan::ExecutionPlan* plan = CaptureShape(x.shape(), x);
    if (plan != nullptr) {
      last_was_planned_ = true;
      return plan->Run(x);
    }
  }
  last_was_planned_ = false;
  InferenceModeGuard inference;
  return model_->Forward(x);
}

}  // namespace core
}  // namespace focus
