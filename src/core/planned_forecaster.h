// Plan-or-eager forecasting front end.
//
// Wraps any ForecastModel with a per-shape cache of compiled execution
// plans (src/plan): the first Forward() for an input shape captures and
// compiles a plan; subsequent calls replay it (zero tensor-allocator
// calls, fused kernels, no tape). Shapes whose capture failed — the
// model used an op without a capture hook — are remembered and served
// eagerly (under InferenceModeGuard) without re-trying every call. A
// SIMD backend switch invalidates cached plans via the plan guard; the
// wrapper then recaptures. The failed-shape memo is likewise keyed by
// the backend that failed: after a backend switch the capture is
// re-attempted once instead of pinning the shape eager forever.
//
// The serving engine (src/serve) calls Prewarm() at startup for the one
// (1, N, L) shape it serves, so the first request never pays
// capture+compile latency inline; every prewarmed plan bumps the
// "plan/prewarm" counter in obs::MetricsRegistry.
//
// Contract inherited from ExecutionPlan: the model must be frozen (plans
// pin parameter values at capture time) and the returned tensor of a
// planned call is overwritten by the next one. Not thread-safe: one
// forecaster per thread; captures (Forward on a new shape, Prewarm) are
// process-global and must not run concurrently with each other or with
// tensor work on other threads.
#ifndef FOCUS_CORE_PLANNED_FORECASTER_H_
#define FOCUS_CORE_PLANNED_FORECASTER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/forecast_model.h"
#include "plan/plan.h"
#include "tensor/simd/vec.h"

namespace focus {
namespace core {

class PlannedForecaster {
 public:
  explicit PlannedForecaster(ForecastModel* model,
                             plan::Options opts = {});

  // Planned when a plan exists or can be captured for x's shape;
  // eager (inference-mode) otherwise.
  Tensor Forward(const Tensor& x);

  // Captures and compiles plans for every shape ahead of traffic, so a
  // later Forward() at that shape replays immediately. Shapes that
  // already have a live plan are skipped; shapes whose capture fails
  // land in the failed-shape memo exactly as an inline capture would.
  // Returns the number of plans newly compiled (each also counted on
  // the "plan/prewarm" metric).
  int Prewarm(const std::vector<Shape>& shapes);

  // Batch-size sweep convenience (the benchmark's per-batch replay
  // probes): prewarms `base_shape` with its leading (batch) dimension
  // replaced by each of `batch_sizes`.
  int PrewarmBatchSizes(const Shape& base_shape,
                        const std::vector<int64_t>& batch_sizes);

  // Whether the last Forward() ran on a compiled plan.
  bool last_was_planned() const { return last_was_planned_; }

  // The cached plan for `shape`, or nullptr (none yet / capture failed).
  const plan::ExecutionPlan* plan_for(const Shape& shape) const;

 private:
  // Captures `shape`, caching the plan on success and memoizing the
  // (shape, backend) on failure. Returns the new plan or nullptr.
  plan::ExecutionPlan* CaptureShape(const Shape& shape, const Tensor& example);
  // True when capture already failed for this shape on the *current*
  // backend; a stale-backend entry is dropped so capture retries.
  bool KnownBadShape(const Shape& shape);

  ForecastModel* model_;  // not owned; must outlive the wrapper
  plan::Options opts_;
  std::vector<std::pair<Shape, std::unique_ptr<plan::ExecutionPlan>>>
      plans_;
  // Shapes whose capture failed, with the SIMD backend active at the
  // time: a backend change invalidates the memo entry (regression-tested
  // in tests/plan_test.cc).
  std::vector<std::pair<Shape, simd::Backend>> failed_shapes_;
  bool last_was_planned_ = false;
};

}  // namespace core
}  // namespace focus

#endif  // FOCUS_CORE_PLANNED_FORECASTER_H_
