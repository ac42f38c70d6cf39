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

plan::ExecutionPlan* PlannedForecaster::LivePlan(const Tensor& x) {
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    if (it->first != x.shape()) continue;
    if (it->second->Matches(x)) return it->second.get();
    plans_.erase(it);  // captured at another precision
    return nullptr;
  }
  return nullptr;
}

bool PlannedForecaster::KnownBadShape(const Shape& shape) const {
  return std::find(failed_shapes_.begin(), failed_shapes_.end(), shape) !=
         failed_shapes_.end();
}

plan::ExecutionPlan* PlannedForecaster::CaptureShape(const Shape& shape,
                                                     const Tensor& example) {
  auto plan = plan::ExecutionPlan::Capture(
      [this](const Tensor& in) { return model_->Forward(in); }, example);
  if (plan == nullptr) {
    failed_shapes_.push_back(shape);
    return nullptr;
  }
  plans_.emplace_back(shape, std::move(plan));
  return plans_.back().second.get();
}

int PlannedForecaster::Prewarm(const std::vector<Shape>& shapes) {
  int compiled = 0;
  for (const Shape& shape : shapes) {
    if (KnownBadShape(shape)) continue;
    // The example's values are irrelevant to the captured program —
    // capture records kernel launches, not data — but they do flow
    // through the forward once, so use well-formed random windows.
    Rng rng(1);
    Tensor example = Tensor::Randn(shape, rng);
    if (LivePlan(example) != nullptr) continue;
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
  plan::ExecutionPlan* plan = LivePlan(x);
  if (plan == nullptr && !KnownBadShape(x.shape())) {
    plan = CaptureShape(x.shape(), x);
  }
  last_was_planned_ = plan != nullptr;
  if (last_was_planned_) return plan->Run(x);
  InferenceModeGuard inference;
  return model_->Forward(x);
}

}  // namespace core
}  // namespace focus
