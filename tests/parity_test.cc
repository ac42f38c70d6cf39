// Golden parity tests for the parallel kernel layer: every parallelized
// kernel must produce BIT-IDENTICAL outputs (forward and backward) for
// every pool size (1, 4, and 8 threads — more workers than this container
// has cores). This is the enforcement of the determinism guarantee
// documented in README "Performance" — the work split never changes any
// per-element floating-point accumulation order. The final test extends
// the same contract to the SIMD dispatch axis: a training run must not
// care which vector backend executed it.
#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dlinear.h"
#include "baselines/patch_tst.h"
#include "cluster/segment_clustering.h"
#include "core/focus_model.h"
#include "core/planned_forecaster.h"
#include "optim/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/plan.h"
#include "serve/engine.h"
#include "tensor/allocator.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/simd/vec.h"
#include "tensor/tensor.h"
#include "tests/split_model.h"

namespace focus {
namespace {

// Runs `fn` under 1-, 4-, and 8-thread pools and asserts all returned
// tensors match byte-for-byte across every pool size. A case only
// exercises the split if its kernels carry more than kMinShardWork
// (tests/parallel_test.cc pins the rule), so each kernel test below
// includes at least one shape above it.
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

// Row-major strides of `shape`, in elements.
std::vector<int64_t> RowMajorStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (size_t d = shape.size(); d-- > 1;) {
    strides[d - 1] = strides[d] * shape[d];
  }
  return strides;
}

// Offset into `in` (right-aligned, NumPy broadcasting) of output element
// `flat` of shape `out`: the per-element index walk a naive kernel does.
int64_t BroadcastOffset(const Shape& in, const Shape& out, int64_t flat) {
  const std::vector<int64_t> out_strides = RowMajorStrides(out);
  const std::vector<int64_t> in_strides = RowMajorStrides(in);
  const size_t lead = out.size() - in.size();
  int64_t off = 0;
  for (size_t d = 0; d < out.size(); ++d) {
    const int64_t idx = flat / out_strides[d];
    flat -= idx * out_strides[d];
    if (d >= lead && in[d - lead] != 1) off += idx * in_strides[d - lead];
  }
  return off;
}

void ExpectSameBytes(const Tensor& got, const std::vector<float>& want,
                     const std::string& what) {
  ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size())) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(float)))
      << what;
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
  // {5, 67, 96} @ {96, 97}: 10 row-block tasks of 64*96*97 each.
  for (const auto& [a, b] : {std::pair<Shape, Shape>{{5, 31, 17}, {17, 23}},
                             std::pair<Shape, Shape>{{5, 67, 96}, {96, 97}}}) {
    ExpectBitIdenticalAcrossThreadCounts([&] {
      return ForwardBackward(
          [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
          [&] {
            Rng rng(9);
            // 3D lhs against shared 2D rhs: exercises the broadcast-batch
            // kernel path and the batch-sum in backward.
            return std::vector<Tensor>{Tensor::Randn(a, rng),
                                       Tensor::Randn(b, rng)};
          });
    });
  }
}

TEST(ParityTest, Conv1dForwardBackward) {
  // (B, Cin, L, Cout): the second case's 128 output rows carry
  // Cin*K*Lout = 10160 each, and dX/dW split over B and Cout too.
  for (const auto& [B, Cin, L, Cout] :
       {std::array<int64_t, 4>{5, 4, 37, 6},
        std::array<int64_t, 4>{4, 16, 256, 32}}) {
    ExpectBitIdenticalAcrossThreadCounts([&] {
      return ForwardBackward(
          [](std::vector<Tensor>& in) {
            return Conv1d(in[0], in[1], in[2], /*stride=*/2, /*padding=*/3,
                          /*dilation=*/2);
          },
          [&] {
            Rng rng(10);
            return std::vector<Tensor>{Tensor::Randn({B, Cin, L}, rng),
                                       Tensor::Randn({Cout, Cin, 5}, rng),
                                       Tensor::Randn({Cout}, rng)};
          });
    });
  }
}

TEST(ParityTest, Conv2dForwardBackward) {
  // (B, Cin, H, W, Cout): the second case's 32 output planes carry
  // Cin*KH*KW*Hout*Wout = 73728 each.
  for (const auto& [B, Cin, H, W, Cout] :
       {std::array<int64_t, 5>{3, 3, 13, 11, 5},
        std::array<int64_t, 5>{2, 8, 32, 32, 16}}) {
    ExpectBitIdenticalAcrossThreadCounts([&] {
      return ForwardBackward(
          [](std::vector<Tensor>& in) {
            return Conv2d(in[0], in[1], in[2], /*stride=*/1, /*padding=*/1);
          },
          [&] {
            Rng rng(11);
            return std::vector<Tensor>{Tensor::Randn({B, Cin, H, W}, rng),
                                       Tensor::Randn({Cout, Cin, 3, 3}, rng),
                                       Tensor::Randn({Cout}, rng)};
          });
    });
  }
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

// SoftmaxLastDim(x, s) applies the scale inside its row sweep. It must
// equal the two-op composition it replaced in forward bytes, input
// gradient bytes and charged FLOPs, on every SIMD backend. n = 47
// leaves a lane tail in every row.
TEST(ParityTest, ScaledSoftmaxMatchesMulScalarComposition) {
  struct Run {
    Tensor y, grad;
    int64_t fwd_flops = 0, bwd_flops = 0;
  };
  auto run = [](float scale, bool one_op) {
    Rng rng(17);
    Tensor x = Tensor::Randn({61, 47}, rng);
    Tensor w = Tensor::Randn({61, 47}, rng);
    x.SetRequiresGrad(true);
    Run r;
    FlopScope fwd;
    r.y = one_op ? SoftmaxLastDim(x, scale)
                 : SoftmaxLastDim(MulScalar(x, scale));
    r.fwd_flops = fwd.Elapsed();
    Tensor loss = SumAll(Mul(r.y, w));
    FlopScope bwd;
    loss.Backward();
    r.bwd_flops = bwd.Elapsed();
    r.grad = x.Grad();
    return r;
  };
  auto same_bytes = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    for (float scale : {0.3f, 2.7f}) {
      const Run one = run(scale, true);
      const Run two = run(scale, false);
      const std::string what = std::string(simd::BackendName()) +
                               " s=" + std::to_string(scale);
      EXPECT_TRUE(same_bytes(one.y, two.y)) << "forward, " << what;
      EXPECT_TRUE(same_bytes(one.grad, two.grad)) << "gradient, " << what;
      EXPECT_EQ(one.fwd_flops, two.fwd_flops) << what;
      EXPECT_EQ(one.bwd_flops, two.bwd_flops) << what;
    }
  }
  simd::ReinitFromEnv();
}

TEST(ParityTest, LayerNormForwardBackward) {
  // 2048 x 160 splits the row sweeps and the dgamma/dbeta columns.
  for (const auto& [rows, n] : {std::pair<int64_t, int64_t>{53, 19},
                                std::pair<int64_t, int64_t>{2048, 160}}) {
    ExpectBitIdenticalAcrossThreadCounts([&] {
      return ForwardBackward(
          [](std::vector<Tensor>& in) {
            return LayerNormLastDim(in[0], in[1], in[2], 1e-5f);
          },
          [&] {
            Rng rng(13);
            return std::vector<Tensor>{Tensor::Randn({rows, n}, rng),
                                       Tensor::Randn({n}, rng),
                                       Tensor::Randn({n}, rng)};
          });
    });
  }
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
  // The second output has 168960 elements: its row sweep splits.
  for (const Shape& a : {Shape{64, 33, 9}, Shape{128, 33, 40}}) {
    ExpectBitIdenticalAcrossThreadCounts([&] {
      return ForwardBackward(
          [](std::vector<Tensor>& in) { return Mul(in[0], in[1]); },
          [&] {
            Rng rng(15);
            return std::vector<Tensor>{Tensor::Randn(a, rng),
                                       Tensor::Randn({33, 1}, rng)};
          });
    });
  }
}

// Every axis order of a rank-4 tensor with odd extents, at 1 and 4
// threads: the forward and the input gradient of SumAll(Permute(x) * w)
// (w scattered back through the inverse permutation) must match a naive
// per-element index walk byte for byte. The second shape's 81719
// elements split every row sweep.
TEST(ParityTest, PermuteEveryAxisOrder) {
  for (const Shape& shape : {Shape{9, 11, 13, 5}, Shape{17, 19, 23, 11}}) {
    const std::vector<int64_t> in_strides = RowMajorStrides(shape);
    std::vector<int64_t> dims = {0, 1, 2, 3};
    int orders = 0;
    do {
      Shape out_shape(4);
      for (size_t d = 0; d < 4; ++d) {
        out_shape[d] = shape[static_cast<size_t>(dims[d])];
      }
      Rng rng(21);
      const Tensor x0 = Tensor::Randn(shape, rng);
      const Tensor w = Tensor::Randn(out_shape, rng);
      // Naive reference: output element flat reads x at sum_d i_d *
      // in_strides[dims[d]]; the gradient scatters w the same way.
      std::vector<float> want_out(static_cast<size_t>(x0.numel()));
      std::vector<float> want_grad(want_out.size());
      const std::vector<int64_t> out_strides = RowMajorStrides(out_shape);
      for (int64_t flat = 0; flat < x0.numel(); ++flat) {
        int64_t rem = flat, off = 0;
        for (size_t d = 0; d < 4; ++d) {
          const int64_t idx = rem / out_strides[d];
          rem -= idx * out_strides[d];
          off += idx * in_strides[static_cast<size_t>(dims[d])];
        }
        want_out[static_cast<size_t>(flat)] = x0.data()[off];
        want_grad[static_cast<size_t>(off)] = w.data()[flat];
      }
      for (int threads : {1, 4}) {
        ThreadPool::Global().Resize(threads);
        Tensor x = x0.Clone().SetRequiresGrad(true);
        Tensor out = Permute(x, dims);
        ASSERT_EQ(out.shape(), out_shape);
        SumAll(Mul(out, w)).Backward();
        const std::string what = "order " + std::to_string(dims[0]) +
                                 std::to_string(dims[1]) +
                                 std::to_string(dims[2]) +
                                 std::to_string(dims[3]) + " at " +
                                 std::to_string(threads) + " threads";
        ExpectSameBytes(out, want_out, "forward, " + what);
        ExpectSameBytes(x.Grad(), want_grad, "grad, " + what);
      }
      ++orders;
    } while (std::next_permutation(dims.begin(), dims.end()));
    EXPECT_EQ(orders, 24);
  }
  ThreadPool::Global().Resize(1);
}

// Add/Sub/Mul/Div over the broadcast row shapes (vec-vec, vec-scalar,
// scalar-vec; a scalar-scalar row would need both innermost extents 1
// under a wider output, which broadcasting cannot produce), plus a
// broadcast middle and a broadcast leading dim, at 1 and 4 threads. The
// forward and the gradient of every operand that has the output's shape
// must match a naive per-element reference byte for byte (the backward
// of a full-shape operand is itself a broadcast binary op); the gradient
// of a broadcast operand (a Sum reduction) must match across threads.
// The last case's 80000-element output splits its row sweep.
TEST(ParityTest, BroadcastBinaryRowShapes) {
  struct Case {
    Shape a, b;
  };
  const std::vector<Case> cases = {
      {{40, 1, 6}, {40, 50, 6}},   // vec-vec, broadcast middle dim
      {{40, 50, 7}, {7}},          // vec-vec, broadcast leading dims
      {{40, 50, 7}, {40, 50, 1}},  // vec-scalar
      {{40, 50, 1}, {40, 50, 7}},  // scalar-vec
      {{1, 50, 1}, {40, 1, 7}},    // scalar-vec, both operands broadcast
      {{100, 1, 16}, {100, 50, 16}},  // vec-vec, above the split threshold
  };
  using OpFn = Tensor (*)(const Tensor&, const Tensor&);
  const std::vector<std::pair<const char*, OpFn>> ops = {
      {"Add", &Add}, {"Sub", &Sub}, {"Mul", &Mul}, {"Div", &Div}};
  for (const Case& c : cases) {
    const Shape out_shape = BroadcastShapes(c.a, c.b);
    Rng rng(22);
    const Tensor a0 = Tensor::Randn(c.a, rng);
    // Keep the divisor away from zero.
    const Tensor b0 = AddScalar(Abs(Tensor::Randn(c.b, rng)), 0.5f);
    const Tensor w = Tensor::Randn(out_shape, rng);
    const int64_t n = ShapeNumel(out_shape);
    for (const auto& [name, op] : ops) {
      const std::string op_name = name;
      std::vector<float> want_out(static_cast<size_t>(n));
      std::vector<float> want_ga(want_out.size());
      std::vector<float> want_gb(want_out.size());
      for (int64_t flat = 0; flat < n; ++flat) {
        const float x = a0.data()[BroadcastOffset(c.a, out_shape, flat)];
        const float y = b0.data()[BroadcastOffset(c.b, out_shape, flat)];
        const float g = w.data()[flat];
        const size_t i = static_cast<size_t>(flat);
        if (op_name == "Add") {
          want_out[i] = x + y;
          want_ga[i] = g;
          want_gb[i] = g;
        } else if (op_name == "Sub") {
          want_out[i] = x - y;
          want_ga[i] = g;
          want_gb[i] = -g;
        } else if (op_name == "Mul") {
          want_out[i] = x * y;
          want_ga[i] = g * y;
          want_gb[i] = g * x;
        } else {
          want_out[i] = x / y;
          want_ga[i] = g / y;
          const float num = g * x;
          const float den = y * y;
          want_gb[i] = -(num / den);
        }
      }
      const std::vector<const std::vector<float>*> want_grads = {&want_ga,
                                                                 &want_gb};
      std::vector<Tensor> serial_grads;
      for (int threads : {1, 4}) {
        ThreadPool::Global().Resize(threads);
        Tensor a = a0.Clone().SetRequiresGrad(true);
        Tensor b = b0.Clone().SetRequiresGrad(true);
        Tensor out = op(a, b);
        ASSERT_EQ(out.shape(), out_shape);
        SumAll(Mul(out, w)).Backward();
        const std::string what = op_name + " " + ShapeToString(c.a) +
                                 " with " + ShapeToString(c.b) + " at " +
                                 std::to_string(threads) + " threads";
        ExpectSameBytes(out, want_out, "forward, " + what);
        const std::vector<Tensor> grads = {a.Grad(), b.Grad()};
        for (size_t k = 0; k < grads.size(); ++k) {
          const std::string gwhat = "grad " + std::to_string(k) + ", " + what;
          if (grads[k].shape() == out_shape) {
            ExpectSameBytes(grads[k], *want_grads[k], gwhat);
          } else if (threads > 1) {
            const Tensor& serial = serial_grads[k];
            ExpectSameBytes(
                grads[k],
                std::vector<float>(serial.data(),
                                   serial.data() + serial.numel()),
                gwhat);
          }
        }
        if (threads == 1) serial_grads = grads;
      }
    }
  }
  ThreadPool::Global().Resize(1);
}

TEST(ParityTest, SumOverEachAxis) {
  // 23 x 300 x 16 puts every axis's reduction above the split threshold.
  for (const Shape& shape : {Shape{23, 300, 7}, Shape{23, 300, 16}}) {
    for (int64_t dim = 0; dim < 3; ++dim) {
      ExpectBitIdenticalAcrossThreadCounts([&] {
        return ForwardBackward(
            [dim](std::vector<Tensor>& in) {
              return Sum(in[0], dim, /*keepdim=*/false);
            },
            [&] {
              Rng rng(16);
              return std::vector<Tensor>{Tensor::Randn(shape, rng)};
            });
      });
    }
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
  // 20000 segments split both the k-means++ distance sweep (p per row)
  // and the assignment (k*p per row).
  for (int64_t n : {512, 20000}) {
    Rng rng(18);
    Tensor segments = Tensor::Randn({n, 16}, rng);
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
    EXPECT_EQ(serial.assignments, pooled.assignments) << n;
    ASSERT_EQ(serial.prototypes.numel(), pooled.prototypes.numel());
    EXPECT_EQ(0, std::memcmp(
                     serial.prototypes.data(), pooled.prototypes.data(),
                     static_cast<size_t>(serial.prototypes.numel()) *
                         sizeof(float)))
        << n;
  }
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

// The models every plan parity test runs: FOCUS and two baselines over
// (B, 3, 32) windows, and FOCUS at the bench shape over (B, 8, 512),
// whose matmuls split across the pool. Between them ProtoAttn runs with
// fewer tokens than prototypes (the entity branches: l = 3 against k = 4
// in the 3x32 FOCUS model, l = 8 against k = 16 in FOCUS-split), as many
// (the 3x32 model's l = 4 patches) and more (FOCUS-split's temporal
// branch, l = 32 against k = 16).
struct PlannedCase {
  const char* name;
  std::function<std::unique_ptr<ForecastModel>()> make;
  int64_t entities = 3, lookback = 32;
};

std::vector<PlannedCase> PlannedCases() {
  return {
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
      {"FOCUS-split",
       [] {
         return std::unique_ptr<ForecastModel>(
             std::make_unique<core::FocusModel>(SplitFocusConfig(),
                                                SplitFocusPrototypes()));
       },
       8, 512},
  };
}

// The execution-plan axis of the bit-identity contract: a compiled plan
// (src/plan) replays the exact eager kernel sequence, so for FOCUS and
// the baselines the planned forecast must match the eager inference
// forward byte-for-byte on every SIMD backend and at every pool size.
TEST(ParityTest, ForecastPlannedVsEagerBitIdentical) {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    for (const PlannedCase& c : PlannedCases()) {
      auto model = c.make();
      model->SetTraining(false);
      Rng rng(27);
      Tensor x = Tensor::Randn({2, c.entities, c.lookback}, rng);
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

// A plan is not tied to the SIMD backend it was captured under: some of
// its closures keep the capture-time kernels and others (MatMul, Conv1d)
// look theirs up on every run, and scalar == AVX2 bit for bit, so a plan
// replayed after a backend switch still matches the eager forward under
// the new backend, in both directions.
TEST(ParityTest, PlanReplayAcrossBackendSwitchBitIdentical) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "needs two SIMD backends to switch between";
  }
  const std::pair<simd::Backend, simd::Backend> switches[] = {
      {simd::Backend::kScalar, simd::Backend::kAvx2},
      {simd::Backend::kAvx2, simd::Backend::kScalar}};
  for (const auto& [capture_backend, replay_backend] : switches) {
    for (const PlannedCase& c : PlannedCases()) {
      auto model = c.make();
      model->SetTraining(false);
      Rng rng(28);
      Tensor x = Tensor::Randn({2, c.entities, c.lookback}, rng);
      ASSERT_TRUE(simd::SetBackend(capture_backend));
      auto plan = plan::ExecutionPlan::Capture(
          [&](const Tensor& in) { return model->Forward(in); }, x);
      ASSERT_NE(plan, nullptr) << c.name;
      ASSERT_TRUE(simd::SetBackend(replay_backend));
      ASSERT_TRUE(plan->Matches(x)) << c.name;
      Tensor eager;
      {
        InferenceModeGuard inference;
        eager = model->Forward(x);
      }
      Tensor out = plan->Run(x);
      ASSERT_EQ(out.shape(), eager.shape()) << c.name;
      EXPECT_EQ(0, std::memcmp(out.data(), eager.data(),
                               static_cast<size_t>(out.numel()) *
                                   sizeof(float)))
          << c.name << " plan captured under "
          << (capture_backend == simd::Backend::kAvx2 ? "avx2" : "scalar")
          << " differs from eager after the backend switch";
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
void ExpectServedMatchesEager(const core::FocusConfig& cfg,
                              const Tensor& prototypes) {
  constexpr int kWindows = 6;
  constexpr int kClients = 2;
  const int64_t entities = cfg.num_entities, lookback = cfg.lookback;

  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    const char* backend_name =
        backend == simd::Backend::kAvx2 ? "avx2" : "scalar";
    auto model = std::make_unique<core::FocusModel>(cfg, prototypes);
    model->SetTraining(false);

    // Golden references: eager batch-1 forwards on a serial pool.
    ThreadPool::Global().Resize(1);
    std::vector<Tensor> windows, refs;
    for (int i = 0; i < kWindows; ++i) {
      Rng rng(100 + static_cast<uint64_t>(i));
      windows.push_back(Tensor::Randn({entities, lookback}, rng));
      InferenceModeGuard inference;
      refs.push_back(
          model->Forward(windows.back().Reshape({1, entities, lookback})));
    }

    for (int serve_threads : {1, 2}) {
      for (int pool_threads : {1, 4}) {
        ThreadPool::Global().Resize(pool_threads);
        serve::ServeOptions opts;
        opts.threads = serve_threads;
        serve::ForecastEngine engine(model.get(), entities, lookback, opts);
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
                  << "window " << w << " differs when served (L="
                  << lookback << ", " << backend_name << ", " << serve_threads
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

TEST(ParityTest, ServedVsEagerBitIdentical) {
  core::FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 3;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 23;
  Rng prng(24);
  ExpectServedMatchesEager(cfg, Tensor::Randn({4, 8}, prng));
  // The bench shape: each served forward splits its matmuls.
  ExpectServedMatchesEager(SplitFocusConfig(), SplitFocusPrototypes());
}

}  // namespace
}  // namespace focus
