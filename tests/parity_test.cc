// Golden parity tests for the parallel kernel layer: every parallelized
// kernel must produce BIT-IDENTICAL outputs (forward and backward) for
// every pool size (1, 4, and 8 threads — more workers than this container
// has cores). This is the enforcement of the determinism guarantee
// documented in README "Performance" — the work split never changes any
// per-element floating-point accumulation order. The final test extends
// the same contract to the SIMD dispatch axis: a training run must not
// care which vector backend executed it.
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dlinear.h"
#include "baselines/patch_tst.h"
#include "cluster/segment_clustering.h"
#include "core/focus_model.h"
#include "core/planned_forecaster.h"
#include "optim/optimizer.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "tensor/allocator.h"
#include "tensor/ops.h"
#include "tensor/simd/vec.h"
#include "tensor/tensor.h"

namespace focus {
namespace {

// Runs `fn` under 1-, 4-, and 8-thread pools and asserts all returned
// tensors match byte-for-byte across every pool size.
void ExpectBitIdenticalAcrossThreadCounts(
    const std::function<std::vector<Tensor>()>& fn) {
  ThreadPool::Global().Resize(1);
  const std::vector<Tensor> serial = fn();
  for (int threads : {4, 8}) {
    ThreadPool::Global().Resize(threads);
    const std::vector<Tensor> pooled = fn();
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t t = 0; t < serial.size(); ++t) {
      ASSERT_TRUE(serial[t].defined());
      ASSERT_TRUE(pooled[t].defined());
      ASSERT_EQ(serial[t].shape(), pooled[t].shape()) << "tensor " << t;
      const int64_t n = serial[t].numel();
      ASSERT_EQ(0, std::memcmp(serial[t].data(), pooled[t].data(),
                               static_cast<size_t>(n) * sizeof(float)))
          << "tensor " << t << " differs at " << threads << " threads";
    }
  }
  ThreadPool::Global().Resize(1);
}

// Builds loss = SumAll(out), backprops, and returns {out, grads...}.
std::vector<Tensor> ForwardBackward(
    const std::function<Tensor(std::vector<Tensor>&)>& build,
    const std::function<std::vector<Tensor>()>& make_inputs) {
  std::vector<Tensor> inputs = make_inputs();
  for (Tensor& t : inputs) t.SetRequiresGrad(true);
  Tensor out = build(inputs);
  SumAll(out).Backward();
  std::vector<Tensor> result = {out};
  for (Tensor& t : inputs) result.push_back(t.Grad());
  return result;
}

TEST(ParityTest, MatMul2D) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
        [] {
          Rng rng(7);
          return std::vector<Tensor>{Tensor::Randn({129, 65}, rng),
                                     Tensor::Randn({65, 71}, rng)};
        });
  });
}

TEST(ParityTest, MatMulBatched) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
        [] {
          Rng rng(8);
          return std::vector<Tensor>{Tensor::Randn({6, 67, 33}, rng),
                                     Tensor::Randn({6, 33, 41}, rng)};
        });
  });
}

TEST(ParityTest, MatMulBroadcastBatch) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
        [] {
          Rng rng(9);
          // 3D lhs against shared 2D rhs: exercises the broadcast-batch
          // kernel path and the batch-sum in backward.
          return std::vector<Tensor>{Tensor::Randn({5, 31, 17}, rng),
                                     Tensor::Randn({17, 23}, rng)};
        });
  });
}

TEST(ParityTest, Conv1dForwardBackward) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) {
          return Conv1d(in[0], in[1], in[2], /*stride=*/2, /*padding=*/3,
                        /*dilation=*/2);
        },
        [] {
          Rng rng(10);
          return std::vector<Tensor>{Tensor::Randn({5, 4, 37}, rng),
                                     Tensor::Randn({6, 4, 5}, rng),
                                     Tensor::Randn({6}, rng)};
        });
  });
}

TEST(ParityTest, Conv2dForwardBackward) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) {
          return Conv2d(in[0], in[1], in[2], /*stride=*/1, /*padding=*/1);
        },
        [] {
          Rng rng(11);
          return std::vector<Tensor>{Tensor::Randn({3, 3, 13, 11}, rng),
                                     Tensor::Randn({5, 3, 3, 3}, rng),
                                     Tensor::Randn({5}, rng)};
        });
  });
}

TEST(ParityTest, SoftmaxForwardBackward) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) { return SoftmaxLastDim(in[0]); },
        [] {
          Rng rng(12);
          return std::vector<Tensor>{Tensor::Randn({61, 47}, rng)};
        });
  });
}

TEST(ParityTest, LayerNormForwardBackward) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) {
          return LayerNormLastDim(in[0], in[1], in[2], 1e-5f);
        },
        [] {
          Rng rng(13);
          return std::vector<Tensor>{Tensor::Randn({53, 19}, rng),
                                     Tensor::Randn({19}, rng),
                                     Tensor::Randn({19}, rng)};
        });
  });
}

TEST(ParityTest, ElementwiseBinaryAndUnary) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) {
          return Gelu(Add(Mul(in[0], in[1]), Sub(in[0], in[1])));
        },
        [] {
          Rng rng(14);
          return std::vector<Tensor>{Tensor::Randn({100000}, rng),
                                     Tensor::Randn({100000}, rng)};
        });
  });
}

TEST(ParityTest, BroadcastBinary) {
  ExpectBitIdenticalAcrossThreadCounts([] {
    return ForwardBackward(
        [](std::vector<Tensor>& in) { return Mul(in[0], in[1]); },
        [] {
          Rng rng(15);
          return std::vector<Tensor>{Tensor::Randn({64, 33, 9}, rng),
                                     Tensor::Randn({33, 1}, rng)};
        });
  });
}

TEST(ParityTest, SumOverEachAxis) {
  for (int64_t dim = 0; dim < 3; ++dim) {
    ExpectBitIdenticalAcrossThreadCounts([dim] {
      return ForwardBackward(
          [dim](std::vector<Tensor>& in) {
            return Sum(in[0], dim, /*keepdim=*/false);
          },
          [] {
            Rng rng(16);
            return std::vector<Tensor>{Tensor::Randn({23, 300, 7}, rng)};
          });
    });
  }
}

TEST(ParityTest, ClusterAssignment) {
  Rng rng(17);
  Tensor segments = Tensor::Randn({4096, 24}, rng);
  Tensor prototypes = Tensor::Randn({16, 24}, rng);
  ThreadPool::Global().Resize(1);
  const auto serial =
      cluster::SegmentClustering::Assign(segments, prototypes, 0.3f);
  ThreadPool::Global().Resize(4);
  const auto pooled =
      cluster::SegmentClustering::Assign(segments, prototypes, 0.3f);
  ThreadPool::Global().Resize(1);
  EXPECT_EQ(serial, pooled);
}

TEST(ParityTest, ClusterFitIsThreadCountInvariant) {
  Rng rng(18);
  Tensor segments = Tensor::Randn({512, 16}, rng);
  cluster::ClusteringConfig cfg;
  cfg.segment_length = 16;
  cfg.num_prototypes = 8;
  cfg.max_iters = 4;
  cfg.refine_steps = 3;
  cfg.seed = 19;
  ThreadPool::Global().Resize(1);
  const auto serial = cluster::SegmentClustering(cfg).Fit(segments);
  ThreadPool::Global().Resize(4);
  const auto pooled = cluster::SegmentClustering(cfg).Fit(segments);
  ThreadPool::Global().Resize(1);
  EXPECT_EQ(serial.assignments, pooled.assignments);
  ASSERT_EQ(serial.prototypes.numel(), pooled.prototypes.numel());
  EXPECT_EQ(0, std::memcmp(
                   serial.prototypes.data(), pooled.prototypes.data(),
                   static_cast<size_t>(serial.prototypes.numel()) *
                       sizeof(float)));
}

// Buffer recycling must be numerically invisible: the same training run
// with the allocator cache on and bypassed (FOCUS_ALLOC_CACHE_MB=0
// semantics, set programmatically) must produce bit-identical parameters
// and losses. Recycling only changes *which* memory a kernel writes into,
// never what it computes — this test is the enforcement.
TEST(ParityTest, TrainStepCacheOnVsBypassBitIdentical) {
  auto run_training = [](int64_t cap_bytes) {
    Allocator& alloc = Allocator::Get();
    const int64_t prev_cap = alloc.cap_bytes();
    alloc.SetCapBytes(cap_bytes);

    Rng rng(20);
    Tensor x = Tensor::Randn({24, 17}, rng);
    Tensor y = Tensor::Randn({24, 5}, rng);
    Tensor w1 = Tensor::Randn({17, 8}, rng);
    Tensor b1 = Tensor::Zeros({8});
    Tensor w2 = Tensor::Randn({8, 5}, rng);
    Tensor b2 = Tensor::Zeros({5});
    std::vector<Tensor> params = {w1, b1, w2, b2};
    for (Tensor& p : params) p.SetRequiresGrad(true);
    optim::AdamW opt(params, /*lr=*/1e-2f);

    Tensor loss;
    for (int step = 0; step < 5; ++step) {
      opt.ZeroGrad();
      Tensor h = Gelu(Add(MatMul(x, w1), b1));
      Tensor d = Sub(Add(MatMul(h, w2), b2), y);
      loss = MeanAll(Mul(d, d));
      loss.Backward();
      opt.Step();
    }

    alloc.Trim();
    alloc.SetCapBytes(prev_cap);
    std::vector<Tensor> result = params;
    result.push_back(loss);
    return result;
  };

  const std::vector<Tensor> cached = run_training(256 * (int64_t{1} << 20));
  const std::vector<Tensor> bypass = run_training(0);
  ASSERT_EQ(cached.size(), bypass.size());
  for (size_t t = 0; t < cached.size(); ++t) {
    ASSERT_EQ(cached[t].shape(), bypass[t].shape()) << "tensor " << t;
    ASSERT_EQ(0, std::memcmp(cached[t].data(), bypass[t].data(),
                             static_cast<size_t>(cached[t].numel()) *
                                 sizeof(float)))
        << "tensor " << t << " differs between cache-on and bypass";
  }
}

// The SIMD axis of the same contract: a 5-step AdamW training run must
// produce bit-identical parameters and losses on the AVX2 and scalar
// backends. This is what lets FOCUS_SIMD=OFF builds, the ASan scalar leg,
// and non-AVX2 machines reproduce recorded results exactly.
TEST(ParityTest, TrainStepSimdBackendBitIdentical) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "AVX2 backend not compiled in or not supported";
  }
  auto run_training = [](simd::Backend backend) {
    EXPECT_TRUE(simd::SetBackend(backend));

    Rng rng(21);
    Tensor x = Tensor::Randn({24, 17}, rng);
    Tensor y = Tensor::Randn({24, 5}, rng);
    Tensor w1 = Tensor::Randn({17, 8}, rng);
    Tensor b1 = Tensor::Zeros({8});
    Tensor w2 = Tensor::Randn({8, 5}, rng);
    Tensor b2 = Tensor::Zeros({5});
    std::vector<Tensor> params = {w1, b1, w2, b2};
    for (Tensor& p : params) p.SetRequiresGrad(true);
    optim::AdamW opt(params, /*lr=*/1e-2f);

    Tensor loss;
    for (int step = 0; step < 5; ++step) {
      opt.ZeroGrad();
      Tensor h = Gelu(Add(MatMul(x, w1), b1));
      Tensor d = Sub(Add(MatMul(h, w2), b2), y);
      loss = MeanAll(Mul(d, d));
      loss.Backward();
      opt.Step();
    }

    std::vector<Tensor> result = params;
    result.push_back(loss);
    return result;
  };

  std::vector<Tensor> avx2;
  std::vector<Tensor> scalar;
  run_training(simd::Backend::kAvx2).swap(avx2);
  run_training(simd::Backend::kScalar).swap(scalar);
  simd::ReinitFromEnv();
  ASSERT_EQ(avx2.size(), scalar.size());
  for (size_t t = 0; t < avx2.size(); ++t) {
    ASSERT_EQ(avx2[t].shape(), scalar[t].shape()) << "tensor " << t;
    ASSERT_EQ(0, std::memcmp(avx2[t].data(), scalar[t].data(),
                             static_cast<size_t>(avx2[t].numel()) *
                                 sizeof(float)))
        << "tensor " << t << " differs between avx2 and scalar backends";
  }
}

// The execution-plan axis of the bit-identity contract: a compiled plan
// (src/plan) replays the exact eager kernel sequence, so for FOCUS and
// the baselines the planned forecast must match the eager inference
// forward byte-for-byte on every SIMD backend and at every pool size.
// Fresh models and plans per backend — plan closures pin the kernel
// table they were captured against.
TEST(ParityTest, ForecastPlannedVsEagerBitIdentical) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<ForecastModel>()> make;
  };
  const std::vector<Case> cases = {
      {"FOCUS",
       [] {
         core::FocusConfig cfg;
         cfg.lookback = 32;
         cfg.horizon = 8;
         cfg.num_entities = 3;
         cfg.patch_len = 8;
         cfg.d_model = 16;
         cfg.readout_queries = 2;
         cfg.seed = 23;
         Rng rng(24);
         return std::unique_ptr<ForecastModel>(
             std::make_unique<core::FocusModel>(
                 cfg, Tensor::Randn({4, 8}, rng)));
       }},
      {"PatchTST",
       [] {
         baselines::PatchTstConfig cfg;
         cfg.lookback = 32;
         cfg.horizon = 8;
         cfg.patch_len = 8;
         cfg.stride = 8;
         cfg.d_model = 16;
         cfg.num_heads = 2;
         cfg.num_layers = 1;
         cfg.ffn_dim = 32;
         cfg.seed = 25;
         return std::unique_ptr<ForecastModel>(
             std::make_unique<baselines::PatchTst>(cfg));
       }},
      {"DLinear",
       [] {
         baselines::DLinearConfig cfg;
         cfg.lookback = 32;
         cfg.horizon = 8;
         cfg.moving_avg = 7;
         cfg.seed = 26;
         return std::unique_ptr<ForecastModel>(
             std::make_unique<baselines::DLinear>(cfg));
       }},
  };

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    for (const Case& c : cases) {
      auto model = c.make();
      model->SetTraining(false);
      Rng rng(27);
      Tensor x = Tensor::Randn({2, 3, 32}, rng);
      ThreadPool::Global().Resize(1);
      Tensor eager;
      {
        InferenceModeGuard inference;
        eager = model->Forward(x);
      }
      core::PlannedForecaster planned(model.get());
      for (int threads : {1, 4, 8}) {
        ThreadPool::Global().Resize(threads);
        Tensor out = planned.Forward(x);
        EXPECT_TRUE(planned.last_was_planned())
            << c.name << " did not compile a plan";
        ASSERT_EQ(out.shape(), eager.shape()) << c.name;
        ASSERT_EQ(0, std::memcmp(out.data(), eager.data(),
                                 static_cast<size_t>(out.numel()) *
                                     sizeof(float)))
            << c.name << " planned forecast differs from eager at "
            << threads << " threads, backend "
            << (backend == simd::Backend::kAvx2 ? "avx2" : "scalar");
      }
      ThreadPool::Global().Resize(1);
    }
  }
  simd::ReinitFromEnv();
}

// The serving axis of the bit-identity contract: a forecast answered by
// the serving engine must match the eager single-request forward of the
// same window byte-for-byte, no matter how many serving workers raced for
// the queue, the kernel pool size, or the SIMD backend. Plan-replay
// bit-identity reduces all of these axes to the one golden eager
// reference.
TEST(ParityTest, ServedVsEagerBitIdentical) {
  core::FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 3;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 23;
  constexpr int kWindows = 6;
  constexpr int kClients = 2;

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    const char* backend_name =
        backend == simd::Backend::kAvx2 ? "avx2" : "scalar";
    Rng prng(24);
    auto model =
        std::make_unique<core::FocusModel>(cfg, Tensor::Randn({4, 8}, prng));
    model->SetTraining(false);

    // Golden references: eager batch-1 forwards on a serial pool.
    ThreadPool::Global().Resize(1);
    std::vector<Tensor> windows, refs;
    for (int i = 0; i < kWindows; ++i) {
      Rng rng(100 + static_cast<uint64_t>(i));
      windows.push_back(Tensor::Randn({3, 32}, rng));
      InferenceModeGuard inference;
      refs.push_back(model->Forward(windows.back().Reshape({1, 3, 32})));
    }

    for (int serve_threads : {1, 2}) {
      for (int pool_threads : {1, 4}) {
        ThreadPool::Global().Resize(pool_threads);
        serve::ServeOptions opts;
        opts.threads = serve_threads;
        serve::ForecastEngine engine(model.get(), 3, 32, opts);
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (int c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            for (int i = 0; i < kWindows; ++i) {
              const int w = (i + c) % kWindows;
              Tensor served = engine.Forecast(windows[w]);
              ASSERT_TRUE(served.defined());
              ASSERT_EQ(served.numel(), refs[w].numel());
              ASSERT_EQ(0, std::memcmp(served.data(), refs[w].data(),
                                       static_cast<size_t>(served.numel()) *
                                           sizeof(float)))
                  << "window " << w << " differs when served ("
                  << backend_name << ", " << serve_threads
                  << " serve threads, " << pool_threads << " pool threads)";
            }
          });
        }
        for (std::thread& t : clients) t.join();
      }
    }
    ThreadPool::Global().Resize(1);
  }
  simd::ReinitFromEnv();
}

}  // namespace
}  // namespace focus
