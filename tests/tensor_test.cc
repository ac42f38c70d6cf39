// Unit tests for the tensor core: factories, shape machinery, kernels,
// memory accounting and FLOP counting.
#include "tensor/tensor.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "tensor/flops.h"
#include "tensor/memory.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace focus {
namespace {

using testing::ExpectTensorNear;

TEST(TensorTest, FactoriesAndIntrospection) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.dim(), 2);
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.size(0), 2);
  EXPECT_EQ(z.size(-1), 3);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.data()[i], 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  EXPECT_EQ(f.At({2}), 2.5f);

  Tensor v = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(v.At({1, 0}), 3.0f);
  v.Set({1, 0}, 9.0f);
  EXPECT_EQ(v.At({1, 0}), 9.0f);

  Tensor a = Tensor::Arange(5);
  EXPECT_EQ(a.At({4}), 4.0f);

  EXPECT_EQ(Tensor::Scalar(7.0f).Item(), 7.0f);
}

TEST(TensorTest, RandomFactoriesAreDeterministicPerSeed) {
  Rng rng1(42), rng2(42), rng3(43);
  Tensor a = Tensor::Randn({32}, rng1);
  Tensor b = Tensor::Randn({32}, rng2);
  Tensor c = Tensor::Randn({32}, rng3);
  ExpectTensorNear(a, b, 0.0);
  bool any_diff = false;
  for (int64_t i = 0; i < 32; ++i) {
    any_diff |= a.data()[i] != c.data()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(TensorTest, RandnMomentsRoughlyStandard) {
  Rng rng(7);
  Tensor x = Tensor::Randn({10000}, rng);
  double mean = 0, var = 0;
  for (int64_t i = 0; i < x.numel(); ++i) mean += x.data()[i];
  mean /= x.numel();
  for (int64_t i = 0; i < x.numel(); ++i) {
    var += (x.data()[i] - mean) * (x.data()[i] - mean);
  }
  var /= x.numel();
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = a.Clone();
  b.data()[0] = 5;
  EXPECT_EQ(a.At({0}), 1.0f);
}

TEST(TensorTest, DetachSharesBuffer) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor d = a.Detach();
  d.data()[0] = 5;
  EXPECT_EQ(a.At({0}), 5.0f);
  EXPECT_FALSE(d.requires_grad());
}

TEST(TensorTest, AddSubMulDivSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {4, 3, 2, 1});
  ExpectTensorNear(a + b, Tensor::Full({2, 2}, 5.0f));
  ExpectTensorNear(a - b, Tensor::FromVector({2, 2}, {-3, -1, 1, 3}));
  ExpectTensorNear(a * b, Tensor::FromVector({2, 2}, {4, 6, 6, 4}));
  ExpectTensorNear(a / b, Tensor::FromVector({2, 2}, {0.25f, 2.f / 3, 1.5f, 4}),
                   1e-6);
}

TEST(TensorTest, BroadcastRules) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(BroadcastShapes({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
  EXPECT_EQ(BroadcastShapes({1}, {5}), (Shape{5}));
}

TEST(TensorTest, BroadcastAdd) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row = Tensor::FromVector({3}, {10, 20, 30});
  ExpectTensorNear(a + row,
                   Tensor::FromVector({2, 3}, {11, 22, 33, 14, 25, 36}));
  Tensor col = Tensor::FromVector({2, 1}, {100, 200});
  ExpectTensorNear(a + col,
                   Tensor::FromVector({2, 3}, {101, 102, 103, 204, 205, 206}));
}

TEST(TensorTest, BroadcastTo) {
  Tensor x = Tensor::FromVector({1, 3}, {1, 2, 3});
  Tensor y = BroadcastTo(x, {2, 3});
  ExpectTensorNear(y, Tensor::FromVector({2, 3}, {1, 2, 3, 1, 2, 3}));
}

TEST(TensorTest, ScalarOps) {
  Tensor x = Tensor::FromVector({3}, {1, 2, 3});
  ExpectTensorNear(AddScalar(x, 1.0f), Tensor::FromVector({3}, {2, 3, 4}));
  ExpectTensorNear(MulScalar(x, -2.0f), Tensor::FromVector({3}, {-2, -4, -6}));
  ExpectTensorNear(PowScalar(x, 2.0f), Tensor::FromVector({3}, {1, 4, 9}),
                   1e-5);
}

TEST(TensorTest, UnaryOps) {
  Tensor x = Tensor::FromVector({4}, {-1.0f, 0.0f, 0.5f, 2.0f});
  ExpectTensorNear(Neg(x), Tensor::FromVector({4}, {1, 0, -0.5f, -2}));
  ExpectTensorNear(Relu(x), Tensor::FromVector({4}, {0, 0, 0.5f, 2}));
  ExpectTensorNear(Abs(x), Tensor::FromVector({4}, {1, 0, 0.5f, 2}));
  EXPECT_NEAR(Exp(x).At({3}), std::exp(2.0f), 1e-5);
  EXPECT_NEAR(Sigmoid(x).At({0}), 1.0f / (1.0f + std::exp(1.0f)), 1e-6);
  EXPECT_NEAR(Tanh(x).At({3}), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Sqrt(Tensor::FromVector({1}, {9})).Item(), 3.0f, 1e-6);
  EXPECT_NEAR(Log(Tensor::FromVector({1}, {std::exp(1.0f)})).Item(), 1.0f,
              1e-5);
  // GELU reference values (tanh approximation).
  EXPECT_NEAR(Gelu(Tensor::Scalar(0.0f)).Item(), 0.0f, 1e-6);
  EXPECT_NEAR(Gelu(Tensor::Scalar(1.0f)).Item(), 0.84119f, 1e-4);
}

TEST(TensorTest, MatMul2D) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ExpectTensorNear(c, Tensor::FromVector({2, 2}, {58, 64, 139, 154}));
}

TEST(TensorTest, MatMulBatched) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2, 1}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  ExpectTensorNear(c, Tensor::FromVector({2, 1, 1}, {17, 53}));
  // Large enough (6 row-block tasks of 64*70*90) to split across the
  // pool: each batch entry equals its own 2-D product bit for bit.
  Rng rng(12);
  Tensor big_a = Tensor::Randn({3, 130, 70}, rng);
  Tensor big_b = Tensor::Randn({3, 70, 90}, rng);
  Tensor big_c = MatMul(big_a, big_b);
  for (int64_t t = 0; t < 3; ++t) {
    Tensor want = MatMul(Reshape(Slice(big_a, 0, t, t + 1), {130, 70}),
                         Reshape(Slice(big_b, 0, t, t + 1), {70, 90}));
    EXPECT_EQ(0, std::memcmp(big_c.data() + t * 130 * 90, want.data(),
                             sizeof(float) * 130 * 90))
        << "batch " << t;
  }
}

TEST(TensorTest, MatMulBroadcastRhs) {
  Tensor a = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 1}, {5, 6});
  Tensor c = MatMul(a, b);
  ExpectTensorNear(c, Tensor::FromVector({2, 1, 1}, {17, 39}));
}

TEST(TensorTest, MatMulAgainstNaiveReference) {
  Rng rng(11);
  const int64_t m = 9, k = 13, n = 7;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.At({i, kk}) * b.At({kk, j});
      }
      EXPECT_NEAR(c.At({i, j}), acc, 1e-4);
    }
  }
}

TEST(TensorTest, Reductions) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_NEAR(SumAll(x).Item(), 21.0f, 1e-6);
  EXPECT_NEAR(MeanAll(x).Item(), 3.5f, 1e-6);
  ExpectTensorNear(Sum(x, 0, false), Tensor::FromVector({3}, {5, 7, 9}));
  ExpectTensorNear(Sum(x, 1, true), Tensor::FromVector({2, 1}, {6, 15}));
  ExpectTensorNear(Mean(x, 1, false), Tensor::FromVector({2}, {2, 5}));
  ExpectTensorNear(Sum(x, -1, false), Tensor::FromVector({2}, {6, 15}));
}

TEST(TensorTest, SoftmaxRowsSumToOneAndOrderPreserved) {
  Rng rng(3);
  Tensor x = Tensor::Randn({4, 7}, rng, 3.0f);
  Tensor y = SoftmaxLastDim(x);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t c = 0; c < 7; ++c) {
      const float v = y.At({r, c});
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Monotone: larger logit -> larger probability within a row.
  EXPECT_GT(SoftmaxLastDim(Tensor::FromVector({1, 2}, {1, 2})).At({0, 1}),
            SoftmaxLastDim(Tensor::FromVector({1, 2}, {1, 2})).At({0, 0}));
}

TEST(TensorTest, SoftmaxNumericalStabilityWithLargeLogits) {
  Tensor x = Tensor::FromVector({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = SoftmaxLastDim(x);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(y.At({0, c}), 1.0f / 3.0f, 1e-5);
  }
}

TEST(TensorTest, LayerNormNormalizesLastDim) {
  Rng rng(5);
  Tensor x = Tensor::Randn({3, 8}, rng, 4.0f);
  Tensor gamma = Tensor::Ones({8});
  Tensor beta = Tensor::Zeros({8});
  Tensor y = LayerNormLastDim(x, gamma, beta);
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 8; ++c) mean += y.At({r, c});
    mean /= 8;
    for (int64_t c = 0; c < 8; ++c) {
      var += (y.At({r, c}) - mean) * (y.At({r, c}) - mean);
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(TensorTest, ReshapeAliasesAndInfersDim) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor y = Reshape(x, {3, -1});
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  y.data()[0] = 42;
  EXPECT_EQ(x.At({0, 0}), 42.0f);  // aliasing
}

TEST(TensorTest, TransposeAndPermute) {
  Tensor x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(x, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.At({2, 1}), 6.0f);
  EXPECT_EQ(t.At({0, 1}), 4.0f);

  Tensor p = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor q = Permute(p, {2, 0, 1});
  EXPECT_EQ(q.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(q.At({1, 1, 2}), p.At({1, 2, 1}));
}

// Zero-extent shapes flow through the row-sweep kernels (Permute and
// broadcast binary ops) without touching a buffer or dividing by the
// empty innermost extent, forward and backward.
TEST(TensorTest, ZeroSizePermuteAndBroadcast) {
  for (const Shape& shape : {Shape{2, 0, 3}, Shape{2, 3, 0}}) {
    Tensor x = Tensor::Zeros(shape).SetRequiresGrad(true);
    Tensor p = Permute(x, {2, 0, 1});
    EXPECT_EQ(p.shape(), (Shape{shape[2], shape[0], shape[1]}));
    EXPECT_EQ(p.numel(), 0);
    SumAll(p).Backward();
    EXPECT_EQ(x.Grad().shape(), shape);

    Tensor y = Tensor::Zeros(shape).SetRequiresGrad(true);
    Tensor t = Transpose(y, 0, 2);
    EXPECT_EQ(t.shape(), (Shape{shape[2], shape[1], shape[0]}));
    SumAll(t).Backward();
    EXPECT_EQ(y.Grad().shape(), shape);
  }

  Tensor a = Tensor::Zeros({3, 0}).SetRequiresGrad(true);
  Tensor s = Tensor::Ones({1}).SetRequiresGrad(true);
  Tensor sum = Add(a, s);
  EXPECT_EQ(sum.shape(), (Shape{3, 0}));
  SumAll(sum).Backward();
  EXPECT_EQ(a.Grad().shape(), (Shape{3, 0}));
  EXPECT_EQ(s.Grad().shape(), (Shape{1}));
  EXPECT_EQ(s.Grad().At({0}), 0.0f);

  Tensor m = Tensor::Zeros({0, 4}).SetRequiresGrad(true);
  Tensor v = Tensor::Ones({4}).SetRequiresGrad(true);
  Tensor prod = Mul(m, v);
  EXPECT_EQ(prod.shape(), (Shape{0, 4}));
  SumAll(prod).Backward();
  EXPECT_EQ(m.Grad().shape(), (Shape{0, 4}));
  EXPECT_EQ(v.Grad().shape(), (Shape{4}));
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(v.Grad().At({i}), 0.0f);
}

TEST(TensorTest, SliceAndCat) {
  Tensor x = Tensor::Arange(12).Reshape({3, 4});
  Tensor s = Slice(x, 1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{3, 2}));
  EXPECT_EQ(s.At({2, 0}), 9.0f);

  Tensor neg = Slice(x, 0, -2, -1);
  EXPECT_EQ(neg.shape(), (Shape{1, 4}));
  EXPECT_EQ(neg.At({0, 0}), 4.0f);

  Tensor c = Cat({x, x}, 0);
  EXPECT_EQ(c.shape(), (Shape{6, 4}));
  EXPECT_EQ(c.At({4, 2}), x.At({1, 2}));
  Tensor c1 = Cat({x, x}, 1);
  EXPECT_EQ(c1.shape(), (Shape{3, 8}));
  EXPECT_EQ(c1.At({1, 6}), x.At({1, 2}));
}

TEST(TensorTest, IndexSelect) {
  Tensor x = Tensor::Arange(12).Reshape({4, 3});
  Tensor y = IndexSelect(x, 0, {2, 0, 2});
  EXPECT_EQ(y.shape(), (Shape{3, 3}));
  EXPECT_EQ(y.At({0, 1}), 7.0f);
  EXPECT_EQ(y.At({1, 1}), 1.0f);
  EXPECT_EQ(y.At({2, 2}), 8.0f);

  Tensor z = IndexSelect(x, 1, {1});
  EXPECT_EQ(z.shape(), (Shape{4, 1}));
  EXPECT_EQ(z.At({3, 0}), 10.0f);
}

TEST(TensorTest, UnsqueezeSqueeze) {
  Tensor x = Tensor::Ones({2, 3});
  EXPECT_EQ(x.Unsqueeze(0).shape(), (Shape{1, 2, 3}));
  EXPECT_EQ(x.Unsqueeze(-1).shape(), (Shape{2, 3, 1}));
  EXPECT_EQ(x.Unsqueeze(1).shape(), (Shape{2, 1, 3}));
  EXPECT_EQ(x.Unsqueeze(0).Squeeze(0).shape(), (Shape{2, 3}));
}

TEST(TensorTest, Conv1dKnownValues) {
  // x = [1,2,3,4], w = [1,0,-1]: valid conv -> [1-3, 2-4] = [-2,-2]
  Tensor x = Tensor::FromVector({1, 1, 4}, {1, 2, 3, 4});
  Tensor w = Tensor::FromVector({1, 1, 3}, {1, 0, -1});
  Tensor y = Conv1d(x, w, Tensor());
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2}));
  EXPECT_NEAR(y.At({0, 0, 0}), -2.0f, 1e-6);
  EXPECT_NEAR(y.At({0, 0, 1}), -2.0f, 1e-6);

  Tensor yp = Conv1d(x, w, Tensor(), 1, 1);
  EXPECT_EQ(yp.shape(), (Shape{1, 1, 4}));
  EXPECT_NEAR(yp.At({0, 0, 0}), -2.0f, 1e-6);  // 0*1 + 1*0 + 2*(-1)

  Tensor b = Tensor::FromVector({1}, {10});
  Tensor yb = Conv1d(x, w, b);
  EXPECT_NEAR(yb.At({0, 0, 0}), 8.0f, 1e-6);
}

TEST(TensorTest, Conv1dStrideDilation) {
  Tensor x = Tensor::Arange(8).Reshape({1, 1, 8});
  Tensor w = Tensor::FromVector({1, 1, 2}, {1, 1});
  Tensor y = Conv1d(x, w, Tensor(), /*stride=*/2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4}));
  EXPECT_NEAR(y.At({0, 0, 1}), 5.0f, 1e-6);  // x[2]+x[3]

  Tensor yd = Conv1d(x, w, Tensor(), 1, 0, /*dilation=*/3);
  EXPECT_EQ(yd.shape(), (Shape{1, 1, 5}));
  EXPECT_NEAR(yd.At({0, 0, 0}), 3.0f, 1e-6);  // x[0]+x[3]
}

TEST(TensorTest, Conv2dKnownValues) {
  Tensor x = Tensor::Arange(9).Reshape({1, 1, 3, 3});
  Tensor w = Tensor::Ones({1, 1, 2, 2});
  Tensor y = Conv2d(x, w, Tensor());
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_NEAR(y.At({0, 0, 0, 0}), 0 + 1 + 3 + 4, 1e-6);
  EXPECT_NEAR(y.At({0, 0, 1, 1}), 4 + 5 + 7 + 8, 1e-6);

  Tensor yp = Conv2d(x, w, Tensor(), 1, 1);
  EXPECT_EQ(yp.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_NEAR(yp.At({0, 0, 0, 0}), 0.0f, 1e-6);
}

TEST(TensorTest, Losses) {
  Tensor pred = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor target = Tensor::FromVector({4}, {1, 1, 1, 1});
  EXPECT_NEAR(MseLoss(pred, target).Item(), (0 + 1 + 4 + 9) / 4.0f, 1e-6);
  EXPECT_NEAR(L1Loss(pred, target).Item(), (0 + 1 + 2 + 3) / 4.0f, 1e-6);
}

TEST(TensorTest, MemoryStatsTrackPeak) {
  MemoryStats::ResetPeak();
  const int64_t before = MemoryStats::CurrentBytes();
  {
    Tensor big = Tensor::Zeros({1024});
    EXPECT_GE(MemoryStats::CurrentBytes(), before + 4096);
    EXPECT_GE(MemoryStats::PeakBytes(), before + 4096);
  }
  EXPECT_EQ(MemoryStats::CurrentBytes(), before);
  EXPECT_GE(MemoryStats::PeakBytes(), before + 4096);
}

TEST(TensorTest, FlopCounterCountsMatMul) {
  FlopCounter::Reset();
  Tensor a = Tensor::Ones({8, 16});
  Tensor b = Tensor::Ones({16, 4});
  FlopScope scope;
  MatMul(a, b);
  EXPECT_EQ(scope.Elapsed(), 2 * 8 * 16 * 4);
}

TEST(TensorTest, UndefinedTensorBehaves) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_FALSE(t.requires_grad());
}

}  // namespace
}  // namespace focus
