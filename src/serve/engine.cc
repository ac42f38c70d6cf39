#include "serve/engine.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <utility>

#include "utils/env.h"

namespace focus {
namespace serve {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A (1, N, L) view of the caller's (N, L) window: the forward reads the
// request's own buffer, so serving stages no copy.
Tensor BatchOfOne(const Tensor& window) {
  return Tensor::FromImpl(std::make_shared<TensorImpl>(
      Shape{1, window.size(0), window.size(1)}, window.impl()->buffer()));
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
      precision_(opts.precision),
      queue_(opts.queue_capacity) {
  FOCUS_CHECK(model_ != nullptr);
  FOCUS_CHECK_GT(num_entities_, 0);
  FOCUS_CHECK_GT(lookback_, 0);

  // Prewarm at the engine's serving precision: captured plans embed the
  // precision-resolved ProtoAttn assignment, and Plan::Matches() pins
  // the mode at replay. Captures are process-global; they all happen
  // here, serially, before any serving thread exists. Workers never
  // capture. A failed capture leaves the worker on the eager fallback.
  PrecisionGuard precision(precision_);
  for (int i = 0; i < threads_; ++i) {
    forecasters_.push_back(std::make_unique<core::PlannedForecaster>(model_));
    forecasters_.back()->Prewarm({Shape{1, num_entities_, lookback_}});
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

Request ForecastEngine::MakeRequest(const Tensor& window, int64_t entity,
                                    PendingForecast* done) const {
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
  return request;
}

bool ForecastEngine::Submit(const Tensor& window, int64_t entity,
                            PendingForecast* done) {
  return queue_.Push(MakeRequest(window, entity, done));
}

bool ForecastEngine::TrySubmit(const Tensor& window, int64_t entity,
                               PendingForecast* done) {
  if (!queue_.TryPush(MakeRequest(window, entity, done))) {
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

void ForecastEngine::WorkerLoop(int worker_index) {
  // Thread-local mode: the worker's plan was captured at this precision,
  // and engines at different precisions serve concurrently.
  PrecisionGuard precision(precision_);
  core::PlannedForecaster& forecaster =
      *forecasters_[static_cast<size_t>(worker_index)];
  while (true) {
    Request request;
    if (!queue_.Pop(&request)) return;  // closed and drained
    Process(forecaster, request);
  }
}

void ForecastEngine::Process(core::PlannedForecaster& forecaster,
                             const Request& request) {
  // The worker's own plan replays lock-free; a model whose capture failed
  // at prewarm runs the eager inference forward instead. Neither writes
  // to the shared model, so workers of every engine over it run
  // concurrently.
  const Tensor output = forecaster.Forward(BatchOfOne(request.window));
  FOCUS_CHECK_EQ(output.shape().size(), 3u);
  const int64_t horizon = output.shape()[2];
  Tensor result;
  if (request.entity >= 0) {
    result = Tensor::Empty({horizon});
    std::memcpy(result.data(), output.data() + request.entity * horizon,
                static_cast<size_t>(horizon) * sizeof(float));
  } else {
    result = Tensor::Empty({num_entities_, horizon});
    std::memcpy(result.data(), output.data(),
                static_cast<size_t>(num_entities_ * horizon) * sizeof(float));
  }

  // Account before fulfilling: a caller returning from Wait() must see
  // its own request reflected in stats() and the registry counters.
  requests_.fetch_add(1, std::memory_order_relaxed);
  (forecaster.last_was_planned() ? planned_batches_ : eager_batches_)
      .fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.AddCounter("serve/requests");
  registry.Observe(kLatencyMetric,
                   static_cast<double>(NowNs() - request.enqueue_ns) / 1e3);
  request.done->Fulfill(std::move(result));
}

EngineStats ForecastEngine::stats() const {
  EngineStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.batches = stats.requests;  // one forward per request
  stats.planned_batches = planned_batches_.load(std::memory_order_relaxed);
  stats.eager_batches = eager_batches_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  return stats;
}

obs::MetricsRegistry::HistogramSummary ForecastEngine::LatencySummary()
    const {
  return obs::MetricsRegistry::Get().Summarize(kLatencyMetric);
}

}  // namespace serve
}  // namespace focus
