// Tests for the multi-tenant forecast serving engine (src/serve): FIFO,
// blocking and draining semantics of the request queue, bit-identity of
// served forecasts against the eager single-request forward on both the
// planned path and the eager fallback, the zero-global-allocator-calls
// steady-state contract of the request path, request validation, latency
// telemetry, and shutdown draining.
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/focus_model.h"
#include "obs/metrics_registry.h"
#include "serve/request_queue.h"
#include "tensor/allocator.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tests/conv2d_model.h"
#include "utils/rng.h"

namespace focus {
namespace {

using core::FocusConfig;
using core::FocusModel;
using serve::ForecastEngine;
using serve::PendingForecast;
using serve::Request;
using serve::RequestQueue;
using serve::ServeOptions;

constexpr int64_t kEntities = 3;
constexpr int64_t kLookback = 32;
constexpr int64_t kHorizon = 8;

Tensor MakePrototypes(int64_t k, int64_t p, uint64_t seed) {
  Rng rng(seed);
  Tensor protos = Tensor::Randn({k, p}, rng);
  for (int64_t j = 0; j < k; ++j) {
    float* row = protos.data() + j * p;
    float mean = 0;
    for (int64_t d = 0; d < p; ++d) mean += row[d];
    mean /= p;
    for (int64_t d = 0; d < p; ++d) row[d] -= mean;
  }
  return protos;
}

std::unique_ptr<FocusModel> ServableModel() {
  FocusConfig cfg;
  cfg.lookback = kLookback;
  cfg.horizon = kHorizon;
  cfg.num_entities = kEntities;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 31;
  auto model =
      std::make_unique<FocusModel>(cfg, MakePrototypes(4, 8, 37));
  model->SetTraining(false);
  return model;
}

Tensor MakeWindow(uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn({kEntities, kLookback}, rng);
}

// The determinism reference: the eager batch-1 forward of one window.
Tensor EagerReference(FocusModel& model, const Tensor& window) {
  InferenceModeGuard inference;
  Tensor out = model.Forward(window.Reshape({1, kEntities, kLookback}));
  Tensor ref = Tensor::Empty({kEntities, kHorizon});
  std::memcpy(ref.data(), out.data(),
              static_cast<size_t>(kEntities * kHorizon) * sizeof(float));
  return ref;
}

void ExpectSameBytes(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

TEST(RequestQueueTest, PopIsFifo) {
  RequestQueue queue(8);
  PendingForecast slots[3];
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.window = MakeWindow(100 + i);
    r.done = &slots[i];
    ASSERT_TRUE(queue.Push(std::move(r)));
  }
  EXPECT_EQ(queue.depth(), 3);
  for (int i = 0; i < 3; ++i) {
    Request out;
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out.done, &slots[i]) << "pop " << i;
  }
  EXPECT_EQ(queue.depth(), 0);
}

TEST(RequestQueueTest, PopBlocksUntilPush) {
  RequestQueue queue(8);
  PendingForecast slot;
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Request r;
    r.window = MakeWindow(2);
    r.done = &slot;
    ASSERT_TRUE(queue.Push(std::move(r)));
  });
  Request out;
  ASSERT_TRUE(queue.Pop(&out));  // waits for the pusher
  pusher.join();
  EXPECT_EQ(out.done, &slot);
}

TEST(RequestQueueTest, CloseFailsPushesAndDrainsPops) {
  RequestQueue queue(4);
  PendingForecast slot;
  Request r;
  r.window = MakeWindow(3);
  r.done = &slot;
  ASSERT_TRUE(queue.Push(std::move(r)));
  queue.Close();
  Request rejected;
  rejected.window = MakeWindow(4);
  rejected.done = &slot;
  EXPECT_FALSE(queue.Push(std::move(rejected)));
  Request out;
  EXPECT_TRUE(queue.Pop(&out));   // drains the admitted one
  EXPECT_FALSE(queue.Pop(&out));  // closed and empty
}

TEST(ServeTest, SingleRequestMatchesEagerBitIdentical) {
  auto model = ServableModel();
  Tensor window = MakeWindow(41);
  Tensor ref = EagerReference(*model, window);
  ServeOptions opts;
  opts.threads = 1;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  Tensor served = engine.Forecast(window);
  ExpectSameBytes(served, ref, "served vs eager");
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.planned_batches, 1);
  EXPECT_EQ(stats.eager_batches, 0);
}

TEST(ServeTest, PausedBurstServesOneForwardPerRequest) {
  auto model = ServableModel();
  constexpr int kBurst = 8;
  std::vector<Tensor> windows, refs;
  for (int i = 0; i < kBurst; ++i) {
    windows.push_back(MakeWindow(50 + i));
    refs.push_back(EagerReference(*model, windows.back()));
  }
  ServeOptions opts;
  opts.threads = 1;
  opts.start_paused = true;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  std::vector<PendingForecast> slots(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(engine.Submit(windows[i], &slots[i]));
  }
  engine.Start();
  for (int i = 0; i < kBurst; ++i) {
    ExpectSameBytes(slots[i].Wait(), refs[i], "burst member vs eager");
  }
  const serve::EngineStats stats = engine.stats();
  // All eight were queued before any worker existed; each still runs as
  // its own batch-1 planned forward.
  EXPECT_EQ(stats.requests, kBurst);
  EXPECT_EQ(stats.batches, kBurst);
  EXPECT_EQ(stats.planned_batches, kBurst);
  EXPECT_EQ(stats.padded_rows, 0);
}

TEST(ServeTest, EntityRequestsReturnTheirRows) {
  auto model = ServableModel();
  Tensor window = MakeWindow(83);
  Tensor ref = EagerReference(*model, window);
  ServeOptions opts;
  opts.threads = 1;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  for (int64_t entity = 0; entity < kEntities; ++entity) {
    Tensor row = engine.Forecast(window, entity);
    ASSERT_EQ(row.shape(), (Shape{kHorizon}));
    EXPECT_EQ(0, std::memcmp(row.data(), ref.data() + entity * kHorizon,
                             static_cast<size_t>(kHorizon) * sizeof(float)))
        << "entity " << entity;
  }
}

TEST(ServeTest, ConcurrentClientsBitIdentical) {
  auto model = ServableModel();
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::vector<std::vector<Tensor>> windows(kClients);
  std::vector<std::vector<Tensor>> refs(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      windows[c].push_back(
          MakeWindow(1000 + static_cast<uint64_t>(c) * 100 + i));
      refs[c].push_back(EagerReference(*model, windows[c].back()));
    }
  }
  ServeOptions opts;
  opts.threads = 2;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Tensor served = engine.Forecast(windows[c][i]);
        ExpectSameBytes(served, refs[c][i], "concurrent client vs eager");
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.eager_batches, 0)
      << "every worker's batch-1 plan must be prewarmed";
}

TEST(ServeTest, ZeroSteadyStateGlobalAllocatorCallsOnRequestPath) {
  // The contract needs the caching allocator active: under a bypass cap
  // (FOCUS_ALLOC_CACHE_MB=0, the ASan leg) every free goes back to the
  // system and the assertion below would be vacuously false.
  Allocator& allocator = Allocator::Get();
  const int64_t saved_cap = allocator.cap_bytes();
  allocator.SetCapBytes(256 * (int64_t{1} << 20));

  auto model = ServableModel();
  ServeOptions opts;
  opts.threads = 1;
  opts.start_paused = true;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);

  std::vector<Tensor> windows;
  for (int i = 0; i < 8; ++i) windows.push_back(MakeWindow(300 + i));

  // Warm-up bursts of every size up to 8, so every response-buffer class
  // the steady state will touch is in the free lists before measuring.
  auto run_burst = [&](int size) {
    std::vector<PendingForecast> slots(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      ASSERT_TRUE(engine.Submit(windows[static_cast<size_t>(i)],
                                &slots[static_cast<size_t>(i)]));
    }
    for (int i = 0; i < size; ++i) {
      ASSERT_TRUE(slots[static_cast<size_t>(i)].Wait().defined());
    }
  };
  engine.Start();
  for (int round = 0; round < 2; ++round) {
    for (int size = 1; size <= 8; ++size) run_burst(size);
  }

  const AllocatorStats before = allocator.Stats();
  for (int round = 0; round < 4; ++round) {
    for (int size = 1; size <= 8; ++size) run_burst(size);
  }
  const AllocatorStats after = allocator.Stats();

  // The request path recycles everything: no system allocations, no
  // system frees — only free-list hits and cached returns.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.frees_released, before.frees_released);

  engine.Shutdown();
  allocator.SetCapBytes(saved_cap);
}

TEST(ServeTest, LatencyMetricsExported) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.ResetHistogram(ForecastEngine::kLatencyMetric);
  const int64_t requests_before = registry.CounterValue("serve/requests");

  auto model = ServableModel();
  ServeOptions opts;
  opts.threads = 1;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.Forecast(MakeWindow(400 + i)).defined());
  }
  const auto latency = engine.LatencySummary();
  EXPECT_EQ(latency.count, 5);
  EXPECT_GT(latency.p50, 0.0);
  EXPECT_GE(latency.p95, latency.p50);
  EXPECT_GE(latency.p99, latency.p95);
  EXPECT_EQ(registry.CounterValue("serve/requests") - requests_before, 5);
}

TEST(ServeTest, PrewarmsOnePlanPerWorker) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const int64_t prewarm_before = registry.CounterValue("plan/prewarm");
  auto model = ServableModel();
  ServeOptions opts;
  opts.threads = 2;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  EXPECT_EQ(registry.CounterValue("plan/prewarm") - prewarm_before, 2);
}

// A model whose capture fails is served entirely on the serialized eager
// fallback: concurrent clients on two workers still get the eager bits.
TEST(ServeTest, EagerFallbackServesUncapturableModel) {
  constexpr int64_t kN = 4, kL = 16;
  Conv2dModel model;
  model.SetTraining(false);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const int64_t prewarm_before = registry.CounterValue("plan/prewarm");
  ServeOptions opts;
  opts.threads = 2;
  ForecastEngine engine(&model, kN, kL, opts);
  EXPECT_EQ(registry.CounterValue("plan/prewarm"), prewarm_before)
      << "capture must fail, so nothing is prewarmed";

  constexpr int kClients = 3;
  constexpr int kPerClient = 6;
  std::vector<Tensor> windows, refs;
  for (int i = 0; i < kPerClient; ++i) {
    Rng rng(600 + static_cast<uint64_t>(i));
    windows.push_back(Tensor::Randn({kN, kL}, rng));
    InferenceModeGuard inference;
    refs.push_back(model.Forward(windows.back().Reshape({1, kN, kL}))
                       .Reshape({kN, kL}));
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int w = (i + c) % kPerClient;
        ExpectSameBytes(engine.Forecast(windows[w]), refs[w],
                        "eager fallback vs eager");
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.eager_batches, stats.requests);
  EXPECT_EQ(stats.planned_batches, 0);
}

TEST(ServeTest, TrySubmitRejectsWhenFullAndShutdownDrains) {
  auto model = ServableModel();
  ServeOptions opts;
  opts.threads = 1;
  opts.queue_capacity = 4;
  opts.start_paused = true;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  Tensor window = MakeWindow(91);
  std::vector<PendingForecast> slots(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.TrySubmit(window, -1, &slots[i]));
  }
  EXPECT_FALSE(engine.TrySubmit(window, -1, &slots[4]));
  EXPECT_EQ(engine.stats().rejected, 1);
  // Shutdown on a paused engine still answers everything it admitted.
  engine.Shutdown();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(slots[i].ready()) << "request " << i;
  }
  EXPECT_EQ(engine.stats().requests, 4);
  // Admission is closed for good.
  PendingForecast late;
  EXPECT_FALSE(engine.Submit(window, &late));
}

// Submit and TrySubmit share one validator: an entity below -1 aborts
// either way instead of being answered with the whole forecast.
TEST(ServeDeathTest, TrySubmitRejectsEntityBelowMinusOne) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto model = ServableModel();
  ServeOptions opts;
  opts.threads = 1;
  opts.start_paused = true;
  ForecastEngine engine(model.get(), kEntities, kLookback, opts);
  Tensor window = MakeWindow(92);
  PendingForecast done;
  EXPECT_DEATH(engine.TrySubmit(window, -2, &done), "check failed.*entity");
  EXPECT_DEATH(engine.Submit(window, -2, &done), "check failed.*entity");
}

}  // namespace
}  // namespace focus
