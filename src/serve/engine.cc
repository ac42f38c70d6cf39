#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "tensor/allocator.h"
#include "utils/env.h"

namespace focus {
namespace serve {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wraps arena memory as a Tensor without touching the tensor allocator:
// the aliasing TensorImpl constructor takes ownership of nothing (no-op
// deleter) — the lease stays the sole owner and must outlive every use
// of the returned tensor (ProcessBatch guarantees this: the batch tensor
// dies before the lease does).
Tensor WrapArenaBuffer(Shape shape, float* data) {
  return Tensor::FromImpl(std::make_shared<TensorImpl>(
      std::move(shape), std::shared_ptr<float[]>(data, [](float*) {})));
}

}  // namespace

Tensor PendingForecast::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return ready_; });
  return result_;
}

bool PendingForecast::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ready_;
}

void PendingForecast::Fulfill(Tensor result) {
  // Notify while still holding the lock: the moment ready_ is visible to
  // an unlocked waiter, Wait() can return and the caller can destroy this
  // object, so the notify must complete before the unlock publishes
  // ready_ — notifying after the critical section would race with the
  // destructor.
  std::lock_guard<std::mutex> lock(mu_);
  FOCUS_CHECK(!ready_) << "PendingForecast fulfilled twice";
  result_ = std::move(result);
  ready_ = true;
  cv_.notify_all();
}

ForecastEngine::ForecastEngine(ForecastModel* model, int64_t num_entities,
                               int64_t lookback, ServeOptions opts)
    : model_(model),
      num_entities_(num_entities),
      lookback_(lookback),
      threads_(opts.threads > 0
                   ? opts.threads
                   : static_cast<int>(GetEnvIntInRangeOr(
                         "FOCUS_SERVE_THREADS", 1, 1, 1024))),
      batch_window_us_(opts.batch_window_us >= 0
                           ? opts.batch_window_us
                           : GetEnvIntInRangeOr(
                                 "FOCUS_SERVE_BATCH_WINDOW_US", 100, 0,
                                 10 * 1000 * 1000)),
      max_batch_(std::max(opts.max_batch, 1)),
      use_plans_(opts.use_plans),
      precision_(opts.precision),
      queue_(opts.queue_capacity) {
  FOCUS_CHECK(model_ != nullptr);
  FOCUS_CHECK_GT(num_entities_, 0);
  FOCUS_CHECK_GT(lookback_, 0);

  if (!opts.prewarm_batch_sizes.empty()) {
    ladder_ = opts.prewarm_batch_sizes;
    std::sort(ladder_.begin(), ladder_.end());
    ladder_.erase(std::unique(ladder_.begin(), ladder_.end()),
                  ladder_.end());
    FOCUS_CHECK_GT(ladder_.front(), 0) << "batch ladder must be positive";
  } else {
    for (int64_t b = 1; b < max_batch_; b <<= 1) ladder_.push_back(b);
    ladder_.push_back(max_batch_);
  }
  FOCUS_CHECK_EQ(ladder_.back(), max_batch_)
      << "prewarm ladder must top out at max_batch so every admitted "
         "batch snaps to a prewarmed size";

  workers_.resize(static_cast<size_t>(threads_));
  {
    // Prewarm at the engine's serving precision: captured plans embed
    // the precision-resolved ProtoAttn assignment, and Plan::Matches()
    // pins the mode at replay.
    PrecisionGuard precision(precision_);
    for (Worker& worker : workers_) {
      worker.forecaster = std::make_unique<core::PlannedForecaster>(model_);
      if (use_plans_) {
        // Captures are process-global; they all happen here, serially,
        // before any serving thread exists. Workers never capture.
        worker.forecaster->PrewarmBatchSizes(
            {1, num_entities_, lookback_}, ladder_);
      }
    }
  }

  if (!opts.start_paused) Start();
}

ForecastEngine::~ForecastEngine() { Shutdown(); }

void ForecastEngine::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || shut_down_) return;
  started_ = true;
  worker_threads_.reserve(static_cast<size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    worker_threads_.emplace_back(&ForecastEngine::WorkerLoop, this, i);
  }
}

void ForecastEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    // Workers must exist to drain requests admitted while paused.
    if (!started_) {
      started_ = true;
      for (int i = 0; i < threads_; ++i) {
        worker_threads_.emplace_back(&ForecastEngine::WorkerLoop, this, i);
      }
    }
  }
  queue_.Close();
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();
}

bool ForecastEngine::Submit(const Tensor& window, PendingForecast* done) {
  return Submit(window, -1, done);
}

bool ForecastEngine::Submit(const Tensor& window, int64_t entity,
                            PendingForecast* done) {
  FOCUS_CHECK(done != nullptr);
  FOCUS_CHECK(window.defined());
  FOCUS_CHECK(window.shape() == (Shape{num_entities_, lookback_}))
      << "expected (" << num_entities_ << ", " << lookback_
      << ") window, got " << ShapeToString(window.shape());
  FOCUS_CHECK_GE(entity, -1);
  FOCUS_CHECK_LT(entity, num_entities_);
  Request request;
  request.window = window;
  request.entity = entity;
  request.done = done;
  request.enqueue_ns = NowNs();
  return queue_.Push(std::move(request));
}

bool ForecastEngine::TrySubmit(const Tensor& window, int64_t entity,
                               PendingForecast* done) {
  FOCUS_CHECK(done != nullptr);
  FOCUS_CHECK(window.defined());
  FOCUS_CHECK(window.shape() == (Shape{num_entities_, lookback_}));
  FOCUS_CHECK_LT(entity, num_entities_);
  Request request;
  request.window = window;
  request.entity = entity;
  request.done = done;
  request.enqueue_ns = NowNs();
  if (!queue_.TryPush(std::move(request))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

Tensor ForecastEngine::Forecast(const Tensor& window) {
  return Forecast(window, -1);
}

Tensor ForecastEngine::Forecast(const Tensor& window, int64_t entity) {
  PendingForecast done;
  FOCUS_CHECK(Submit(window, entity, &done))
      << "Forecast() on a shut-down engine";
  return done.Wait();
}

int64_t ForecastEngine::PaddedRows(int count) const {
  for (int64_t b : ladder_) {
    if (b >= count) return b;
  }
  return ladder_.back();
}

void ForecastEngine::WorkerLoop(int worker_index) {
  // Thread-local mode: covers plan Matches() and the eager fallback,
  // and lets engines at different precisions serve concurrently.
  PrecisionGuard precision(precision_);
  Worker& worker = workers_[static_cast<size_t>(worker_index)];
  std::vector<Request> admitted(static_cast<size_t>(max_batch_));
  while (true) {
    const int got =
        queue_.PopBatch(admitted.data(), max_batch_, batch_window_us_);
    if (got == 0) return;  // closed and drained
    ProcessBatch(worker, admitted.data(), got);
    for (int i = 0; i < got; ++i) admitted[static_cast<size_t>(i)] =
        Request{};  // release window references between batches
  }
}

void ForecastEngine::ProcessBatch(Worker& worker, Request* requests,
                                  int count) {
  const int64_t window_floats = num_entities_ * lookback_;
  const int64_t rows = PaddedRows(count);

  Tensor output;
  bool planned = false;
  {
    // Per-in-flight-batch scratch: one slab checked out, returned
    // wholesale when this scope ends. Steady state this is a free-list
    // hit + a cached free — no global-allocator traffic. The scope
    // closes before any Fulfill: once a caller's Wait() returns, the
    // batch that answered it no longer holds a lease (serve_test asserts
    // arena_leased_bytes drains back to its baseline).
    ArenaLease arena(rows * window_floats);
    float* staging = arena.AllocFloats(rows * window_floats);
    for (int i = 0; i < count; ++i) {
      std::memcpy(staging + i * window_floats, requests[i].window.data(),
                  static_cast<size_t>(window_floats) * sizeof(float));
    }
    // Padding rows replicate the last admitted window; their outputs are
    // discarded. Row independence of every batched kernel keeps the real
    // rows' bits unaffected.
    for (int64_t i = count; i < rows; ++i) {
      std::memcpy(staging + i * window_floats,
                  staging + (count - 1) * window_floats,
                  static_cast<size_t>(window_floats) * sizeof(float));
    }

    Tensor batch = WrapArenaBuffer({rows, num_entities_, lookback_},
                                   staging);
    if (use_plans_) {
      const plan::ExecutionPlan* plan =
          worker.forecaster->plan_for(batch.shape());
      if (plan != nullptr && plan->Matches(batch)) {
        // Lock-free replay: the plan is this worker's own, the model's
        // weights are read-only under it, and no side effects replay.
        output = worker.forecaster->Forward(batch);
        planned = true;
      }
    }
    if (!planned) {
      // Eager fallback (plans disabled, capture failed at prewarm, or
      // the SIMD backend changed under us): the eager forward records
      // diagnostics into the shared model, so it serializes.
      std::lock_guard<std::mutex> lock(model_mu_);
      InferenceModeGuard inference;
      output = model_->Forward(batch);
    }
  }

  FOCUS_CHECK_EQ(output.shape().size(), 3u);
  const int64_t horizon = output.shape()[2];
  const float* out_data = output.data();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();

  // Account before fulfilling: a caller returning from Wait() must see
  // its own request reflected in stats() and the registry counters.
  requests_.fetch_add(count, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  padded_rows_.fetch_add(rows - count, std::memory_order_relaxed);
  (planned ? planned_batches_ : eager_batches_)
      .fetch_add(1, std::memory_order_relaxed);
  registry.AddCounter("serve/requests", count);
  registry.AddCounter("serve/batches");
  if (rows > count) registry.AddCounter("serve/padded_rows", rows - count);
  registry.Observe(kBatchSizeMetric, static_cast<double>(count));

  for (int i = 0; i < count; ++i) {
    const float* row = out_data + i * num_entities_ * horizon;
    Tensor result;
    if (requests[i].entity >= 0) {
      result = Tensor::Empty({horizon});
      std::memcpy(result.data(), row + requests[i].entity * horizon,
                  static_cast<size_t>(horizon) * sizeof(float));
    } else {
      result = Tensor::Empty({num_entities_, horizon});
      std::memcpy(result.data(), row,
                  static_cast<size_t>(num_entities_ * horizon) *
                      sizeof(float));
    }
    registry.Observe(kLatencyMetric,
                     static_cast<double>(NowNs() - requests[i].enqueue_ns) /
                         1e3);
    requests[i].done->Fulfill(std::move(result));
  }
}

EngineStats ForecastEngine::stats() const {
  EngineStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.planned_batches = planned_batches_.load(std::memory_order_relaxed);
  stats.eager_batches = eager_batches_.load(std::memory_order_relaxed);
  stats.padded_rows = padded_rows_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  return stats;
}

obs::MetricsRegistry::HistogramSummary ForecastEngine::LatencySummary()
    const {
  return obs::MetricsRegistry::Get().Summarize(kLatencyMetric);
}

}  // namespace serve
}  // namespace focus
