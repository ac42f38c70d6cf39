// Multi-tenant forecast serving engine.
//
// ForecastEngine turns a frozen ForecastModel (+ its prototype bank — for
// FOCUS the bank is baked into the model by offline clustering) into a
// request-driven serving core, the online half of the paper's efficiency
// argument: offline clustering made inference linear in prototypes, this
// engine keeps that inference saturated under concurrent traffic.
//
//   * One request, one batch-1 forward: a worker pops ONE request and
//     replays its own compiled (1, N, L) execution plan
//     (core::PlannedForecaster, prewarmed at construction) directly on a
//     view of the request's window — no staging copy, no padding. Plans
//     touch the model's weights read-only and replay no side effects, so
//     workers never synchronize on the model. Batch-N plans cost at
//     least N batch-1 replays, so coalescing requests buys nothing.
//   * Eager fallback: when a worker's plan is missing (capture failed at
//     prewarm — an uninstrumented op) or stale (the SIMD backend changed),
//     the request runs the eager forward, serialized on a model mutex
//     because the eager forward records diagnostics into the model. It
//     is the only path that serves an uninstrumented model. The engine
//     never captures plans while serving: captures are process-global,
//     so they happen in the constructor only.
//   * Requests land on a bounded MPMC queue (request_queue.h). With
//     warmed caches the request path performs zero global-allocator
//     calls (AllocatorStats misses/frees_released stay flat — asserted in
//     tests/serve_test.cc).
//
// Determinism contract (enforced in tests/parity_test.cc): a served
// forecast is BIT-IDENTICAL to the eager single-request forward of the
// same window, regardless of the SIMD backend, the kernel thread count,
// or the number of serving workers — plan replay is bit-identical to
// eager by construction.
//
// Telemetry: per-request latency lands on the "serve/latency_us"
// histogram (p50/p95/p99 via MetricsRegistry::Summarize), and the
// monotonic counter "serve/requests" flows through the standard
// Tracer/RunReport export path.
#ifndef FOCUS_SERVE_ENGINE_H_
#define FOCUS_SERVE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/forecast_model.h"
#include "core/planned_forecaster.h"
#include "obs/metrics_registry.h"
#include "serve/request_queue.h"
#include "tensor/precision.h"
#include "tensor/tensor.h"

namespace focus {
namespace serve {

struct ServeOptions {
  // Serving workers. <= 0 reads FOCUS_SERVE_THREADS (default 1). Workers
  // scale concurrency across requests; kernel-level parallelism inside a
  // forward is still FOCUS_NUM_THREADS.
  int threads = 0;
  int queue_capacity = 256;  // bound on queued (unpopped) requests
  // Construct without serving threads; callers enqueue with Submit and
  // then Start(). Tests use this to queue a burst before any worker runs.
  bool start_paused = false;
  // Inference precision this engine serves at (per-tenant precision =
  // one engine per tier sharing the frozen model). Defaults to the
  // constructing thread's ambient PrecisionMode, i.e. FOCUS_PRECISION
  // unless overridden. Plans are captured at this precision and every
  // worker thread runs under it; f32 engines are bit-identical to the
  // historical path.
  Precision precision = PrecisionMode::Get();
};

// Caller-owned single-use completion slot for one submitted request.
// Stack-allocatable: the submitting thread keeps it alive until Wait()
// returns (Shutdown fulfills every admitted request, so Wait never
// blocks forever once the request was accepted).
class PendingForecast {
 public:
  PendingForecast() = default;
  PendingForecast(const PendingForecast&) = delete;
  PendingForecast& operator=(const PendingForecast&) = delete;

  // Blocks until the engine answers; returns the forecast — (N, Lf) for
  // whole-window requests, (Lf) for single-entity requests.
  Tensor Wait();
  bool ready() const;

 private:
  friend class ForecastEngine;
  void Fulfill(Tensor result);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;
  Tensor result_;
};

// Monotonic engine counters (mirrored into MetricsRegistry).
// One request is one forward, so `batches == requests`; the batch-named
// fields keep their names for existing readers (perfbench).
struct EngineStats {
  int64_t requests = 0;         // requests answered
  int64_t batches = 0;          // forwards executed
  int64_t planned_batches = 0;  // forwards replayed from a compiled plan
  int64_t eager_batches = 0;    // forwards on the serialized eager path
  int64_t padded_rows = 0;      // always 0: requests are never padded
  int64_t rejected = 0;         // TrySubmit refusals (queue full/closed)
};

class ForecastEngine {
 public:
  // `model` must be frozen (SetTraining(false)) and outlive the engine;
  // forecasts are (entity-count × lookback) -> (entity-count × horizon)
  // with the given input geometry.
  ForecastEngine(ForecastModel* model, int64_t num_entities,
                 int64_t lookback, ServeOptions opts = {});
  ~ForecastEngine();

  // Launches the serving workers (idempotent; the constructor already
  // called it unless opts.start_paused).
  void Start();

  // Asynchronous admission. `window` is the (N, L) lookback for all
  // entities; `entity >= 0` answers only that entity's horizon row.
  // `done` is caller-owned and must outlive the request. The forward
  // reads `window` in place, so the caller must not write it until
  // done->Wait() returns. Blocks while the queue is full; false once the
  // engine shut down.
  bool Submit(const Tensor& window, PendingForecast* done);
  bool Submit(const Tensor& window, int64_t entity, PendingForecast* done);
  // Non-blocking admission; counts a rejection instead of waiting.
  bool TrySubmit(const Tensor& window, int64_t entity,
                 PendingForecast* done);

  // Synchronous convenience: Submit + Wait.
  Tensor Forecast(const Tensor& window);
  Tensor Forecast(const Tensor& window, int64_t entity);

  // Closes admission, drains every queued request, joins the workers.
  // Idempotent; the destructor calls it.
  void Shutdown();

  EngineStats stats() const;
  // p50/p95/p99 over "serve/latency_us" (microseconds per request,
  // submission to fulfillment) since the histogram was last reset.
  obs::MetricsRegistry::HistogramSummary LatencySummary() const;

  int threads() const { return threads_; }
  Precision precision() const { return precision_; }

  static constexpr const char* kLatencyMetric = "serve/latency_us";

  ForecastEngine(const ForecastEngine&) = delete;
  ForecastEngine& operator=(const ForecastEngine&) = delete;

 private:
  void WorkerLoop(int worker_index);
  void Process(core::PlannedForecaster& forecaster, const Request& request);
  // Validates a submission (aborting on a malformed one) and stamps it
  // for the queue; Submit and TrySubmit both admit through it.
  Request MakeRequest(const Tensor& window, int64_t entity,
                      PendingForecast* done) const;

  ForecastModel* model_;  // not owned
  int64_t num_entities_;
  int64_t lookback_;

  int threads_;
  Precision precision_;

  RequestQueue queue_;
  // One per worker, each holding that worker's prewarmed (1, N, L) plan.
  std::vector<std::unique_ptr<core::PlannedForecaster>> forecasters_;
  std::vector<std::thread> worker_threads_;
  std::mutex lifecycle_mu_;  // guards Start/Shutdown transitions
  bool started_ = false;
  bool shut_down_ = false;

  // Serializes the eager fallback: the eager forward writes diagnostics
  // into the shared model, so it cannot run concurrently. Plan replays
  // never take it.
  std::mutex model_mu_;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> planned_batches_{0};
  std::atomic<int64_t> eager_batches_{0};
  std::atomic<int64_t> rejected_{0};
};

}  // namespace serve
}  // namespace focus

#endif  // FOCUS_SERVE_ENGINE_H_
