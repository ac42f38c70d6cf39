// Multi-tenant forecast serving engine.
//
// ForecastEngine turns a frozen ForecastModel (+ its prototype bank — for
// FOCUS the bank is baked into the model by offline clustering) into a
// request-driven serving core, the online half of the paper's efficiency
// argument: offline clustering made inference linear in prototypes, this
// engine keeps that inference saturated under concurrent traffic.
//
//   * Shared immutable state: all workers serve the SAME model object.
//     The steady-state path replays per-worker compiled execution plans
//     (core::PlannedForecaster, prewarmed at construction for the
//     admitted batch-size ladder), which touch the model's weights
//     read-only and replay no side effects — so workers never synchronize
//     on the model. Only the eager fallback (shape not prewarmed, capture
//     failed, or stale SIMD backend) serializes on a model mutex, because
//     the eager forward records diagnostics into the model. The engine
//     never captures plans while serving: captures are process-global,
//     so they happen in the constructor (Prewarm) only.
//   * Admission micro-batching: requests land on a lock-minimal MPMC
//     queue (request_queue.h); a worker blocks for the first request,
//     admits stragglers for FOCUS_SERVE_BATCH_WINDOW_US, stages the
//     admitted windows contiguously and runs ONE batch-N planned forward
//     instead of N batch-1 forwards. Batch sizes snap up the prewarmed
//     ladder (padding rows replicate the last request and are discarded),
//     so the plan cache stays ladder-sized.
//   * Arena-leased scratch: each in-flight batch checks one ArenaLease
//     slab out of the caching allocator and carves its staging buffer
//     from it with a bump pointer, returning the slab wholesale when the
//     batch completes. With warmed caches the request path performs zero
//     global-allocator calls (AllocatorStats misses/frees_released stay
//     flat — asserted in tests/serve_test.cc).
//
// Determinism contract (enforced in tests/parity_test.cc): a served
// forecast is BIT-IDENTICAL to the eager single-request forward of the
// same window, regardless of which requests it was batched with, the
// batch padding, the SIMD backend, the kernel thread count, or the number
// of serving workers. This holds because every batched kernel accumulates
// each output element in a batch-position-independent order (the PR-2
// contract) and plan replay is bit-identical to eager by construction.
//
// Telemetry: per-request latency lands on the "serve/latency_us"
// histogram (p50/p95/p99 via MetricsRegistry::Summarize), batch sizes on
// "serve/batch_size", and monotonic counters "serve/requests",
// "serve/batches", "serve/padded_rows" flow through the standard
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
  // scale concurrency across batches; kernel-level parallelism inside a
  // batch is still FOCUS_NUM_THREADS.
  int threads = 0;
  // Admission window in microseconds. < 0 reads
  // FOCUS_SERVE_BATCH_WINDOW_US (default 100). 0 disables waiting: a
  // batch takes only what is already queued.
  int64_t batch_window_us = -1;
  int max_batch = 16;       // most requests coalesced into one forward
  int queue_capacity = 256;  // bound on queued (unadmitted) requests
  // Serve through prewarmed execution plans; false = always eager (the
  // serialized baseline bench_serve compares against).
  bool use_plans = true;
  // Ladder of batch sizes prewarmed at construction. Empty = powers of
  // two up to and including max_batch. Every admitted batch snaps up
  // this ladder by replicating the last request's window (padded rows
  // are computed and discarded), so every steady-state shape is
  // prewarmed.
  std::vector<int64_t> prewarm_batch_sizes;
  // Construct without serving threads; callers enqueue with Submit and
  // then Start(). Tests use this to pin batch compositions exactly.
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
struct EngineStats {
  int64_t requests = 0;         // requests answered
  int64_t batches = 0;          // forwards executed
  int64_t planned_batches = 0;  // forwards replayed from a compiled plan
  int64_t eager_batches = 0;    // forwards on the serialized eager path
  int64_t padded_rows = 0;      // ladder-padding rows computed+discarded
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
  // `done` is caller-owned and must outlive the request. Blocks while
  // the queue is full; false once the engine shut down.
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
  int64_t batch_window_us() const { return batch_window_us_; }
  int max_batch() const { return max_batch_; }
  Precision precision() const { return precision_; }
  const std::vector<int64_t>& prewarm_ladder() const { return ladder_; }

  static constexpr const char* kLatencyMetric = "serve/latency_us";
  static constexpr const char* kBatchSizeMetric = "serve/batch_size";

  ForecastEngine(const ForecastEngine&) = delete;
  ForecastEngine& operator=(const ForecastEngine&) = delete;

 private:
  struct Worker {
    std::unique_ptr<core::PlannedForecaster> forecaster;
  };

  void WorkerLoop(int worker_index);
  void ProcessBatch(Worker& worker, Request* requests, int count);
  // Smallest ladder entry >= count (ladder_.back() is max_batch_).
  int64_t PaddedRows(int count) const;

  ForecastModel* model_;  // not owned
  int64_t num_entities_;
  int64_t lookback_;

  int threads_;
  int64_t batch_window_us_;
  int max_batch_;
  bool use_plans_;
  Precision precision_;
  std::vector<int64_t> ladder_;

  RequestQueue queue_;
  std::vector<Worker> workers_;
  std::vector<std::thread> worker_threads_;
  std::mutex lifecycle_mu_;  // guards Start/Shutdown transitions
  bool started_ = false;
  bool shut_down_ = false;

  // Serializes the eager fallback: the eager forward writes diagnostics
  // into the shared model, so it cannot run concurrently. Plan replays
  // never take it.
  std::mutex model_mu_;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> planned_batches_{0};
  std::atomic<int64_t> eager_batches_{0};
  std::atomic<int64_t> padded_rows_{0};
  std::atomic<int64_t> rejected_{0};
};

}  // namespace serve
}  // namespace focus

#endif  // FOCUS_SERVE_ENGINE_H_
