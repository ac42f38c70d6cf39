// Autograd correctness: finite-difference gradient checks for every
// differentiable op, plus tape-engine behaviours (accumulation, reuse,
// detach, NoGradGuard, per-thread grad and inference modes).
#include "tensor/autograd.h"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "tensor/ops.h"
#include "tests/test_util.h"

namespace focus {
namespace {

using testing::CheckGradients;

Tensor MakeParam(Shape shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(std::move(shape), rng, stddev);
  t.SetRequiresGrad(true);
  return t;
}

TEST(AutogradTest, AddBackward) {
  Tensor a = MakeParam({2, 3}, 1);
  Tensor b = MakeParam({2, 3}, 2);
  CheckGradients([&] { return SumAll(Add(a, b)); }, {a, b});
}

TEST(AutogradTest, BroadcastAddBackward) {
  Tensor a = MakeParam({2, 3}, 3);
  Tensor b = MakeParam({3}, 4);
  CheckGradients([&] { return SumAll(Mul(Add(a, b), Add(a, b))); }, {a, b});
}

TEST(AutogradTest, SubMulDivBackward) {
  Tensor a = MakeParam({4}, 5);
  Tensor b = MakeParam({4}, 6);
  // Keep denominators away from zero.
  for (int64_t i = 0; i < 4; ++i) b.data()[i] = 2.0f + std::fabs(b.data()[i]);
  CheckGradients([&] { return SumAll(Div(Mul(a, Sub(a, b)), b)); }, {a, b});
}

TEST(AutogradTest, BroadcastMulColumnBackward) {
  Tensor a = MakeParam({3, 4}, 7);
  Tensor b = MakeParam({3, 1}, 8);
  CheckGradients([&] { return MeanAll(Mul(a, b)); }, {a, b});
}

TEST(AutogradTest, ScalarOpsBackward) {
  Tensor a = MakeParam({5}, 9);
  CheckGradients([&] { return SumAll(MulScalar(AddScalar(a, 3.0f), -2.0f)); },
                 {a});
}

TEST(AutogradTest, PowScalarBackward) {
  Tensor a = MakeParam({5}, 10);
  for (int64_t i = 0; i < 5; ++i) a.data()[i] = 0.5f + std::fabs(a.data()[i]);
  CheckGradients([&] { return SumAll(PowScalar(a, 3.0f)); }, {a});
}

struct UnaryCase {
  const char* name;
  Tensor (*op)(const Tensor&);
  bool positive_only;
};

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, MatchesFiniteDifference) {
  const UnaryCase& c = GetParam();
  Tensor a = MakeParam({6}, 11);
  for (int64_t i = 0; i < 6; ++i) {
    if (c.positive_only) {
      a.data()[i] = 0.5f + std::fabs(a.data()[i]);
    } else {
      // Keep away from non-differentiable kinks (0 for relu/abs).
      if (std::fabs(a.data()[i]) < 0.2f) a.data()[i] += 0.5f;
    }
  }
  CheckGradients([&] { return SumAll(Mul(c.op(a), c.op(a))); }, {a});
}

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(UnaryCase{"Neg", &Neg, false},
                      UnaryCase{"Exp", &Exp, false},
                      UnaryCase{"Log", &Log, true},
                      UnaryCase{"Sqrt", &Sqrt, true},
                      UnaryCase{"Abs", &Abs, false},
                      UnaryCase{"Relu", &Relu, false},
                      UnaryCase{"Gelu", &Gelu, false},
                      UnaryCase{"Sigmoid", &Sigmoid, false},
                      UnaryCase{"Tanh", &Tanh, false}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

TEST(AutogradTest, MatMul2DBackward) {
  Tensor a = MakeParam({3, 4}, 12);
  Tensor b = MakeParam({4, 2}, 13);
  CheckGradients([&] { return SumAll(Mul(MatMul(a, b), MatMul(a, b))); },
                 {a, b});
}

TEST(AutogradTest, MatMulBatchedBackward) {
  Tensor a = MakeParam({2, 3, 4}, 14);
  Tensor b = MakeParam({2, 4, 2}, 15);
  CheckGradients([&] { return SumAll(MatMul(a, b)); }, {a, b});
}

TEST(AutogradTest, MatMulBroadcastRhsBackward) {
  Tensor a = MakeParam({2, 3, 4}, 16);
  Tensor b = MakeParam({4, 2}, 17);
  CheckGradients([&] { return SumAll(Mul(MatMul(a, b), MatMul(a, b))); },
                 {a, b});
}

TEST(AutogradTest, MatMulBroadcastLhsBackward) {
  Tensor a = MakeParam({3, 4}, 18);
  Tensor b = MakeParam({2, 4, 2}, 19);
  CheckGradients([&] { return SumAll(MatMul(a, b)); }, {a, b});
}

TEST(AutogradTest, ReductionBackward) {
  Tensor a = MakeParam({3, 4}, 20);
  CheckGradients(
      [&] { return SumAll(Mul(Sum(a, 0, false), Sum(a, 0, false))); },
                 {a});
  CheckGradients(
      [&] { return SumAll(Mul(Mean(a, 1, true), Mean(a, 1, true))); },
                 {a});
  CheckGradients([&] { return MeanAll(Mul(a, a)); }, {a});
}

TEST(AutogradTest, BroadcastToBackward) {
  Tensor a = MakeParam({1, 4}, 21);
  CheckGradients(
      [&] {
        Tensor big = BroadcastTo(a, {3, 4});
        return SumAll(Mul(big, big));
      },
      {a});
}

// A BroadcastTo whose target equals the input's shape is still a graph
// node: the gradient reaches x unchanged.
TEST(AutogradTest, EqualShapeBroadcastToKeepsGraph) {
  Tensor x = MakeParam({3, 4}, 22);
  Tensor y = BroadcastTo(x, x.shape());
  ASSERT_TRUE(y.requires_grad());
  SumAll(Mul(y, y)).Backward();
  ASSERT_TRUE(x.Grad().defined());
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(x.Grad().data()[i], 2.0f * x.data()[i]);
  }
}

TEST(AutogradTest, SoftmaxBackward) {
  Tensor a = MakeParam({3, 5}, 22);
  Rng rng(99);
  Tensor w = Tensor::Randn({3, 5}, rng);  // fixed mixing weights
  for (float scale : {1.0f, 0.3f}) {
    CheckGradients(
        [&] { return SumAll(Mul(SoftmaxLastDim(a, scale), w)); }, {a});
  }
}

TEST(AutogradTest, LayerNormBackward) {
  Tensor x = MakeParam({4, 6}, 23);
  Tensor gamma = MakeParam({6}, 24);
  Tensor beta = MakeParam({6}, 25);
  Rng rng(98);
  Tensor w = Tensor::Randn({4, 6}, rng);
  CheckGradients(
      [&] { return SumAll(Mul(LayerNormLastDim(x, gamma, beta), w)); },
      {x, gamma, beta}, 1e-2, 4e-2, 4e-3);
}

TEST(AutogradTest, ShapeOpsBackward) {
  Tensor a = MakeParam({2, 6}, 26);
  CheckGradients(
      [&] {
        Tensor r = Reshape(a, {3, 4});
        Tensor t = Transpose(r, 0, 1);
        return SumAll(Mul(t, t));
      },
      {a});
}

TEST(AutogradTest, PermuteBackward) {
  Tensor a = MakeParam({2, 3, 4}, 27);
  CheckGradients(
      [&] {
        Tensor p = Permute(a, {2, 0, 1});
        return SumAll(Mul(p, p));
      },
      {a});
}

TEST(AutogradTest, SliceBackward) {
  Tensor a = MakeParam({4, 5}, 28);
  CheckGradients(
      [&] {
        Tensor s = Slice(a, 1, 1, 4);
        return SumAll(Mul(s, s));
      },
      {a});
}

TEST(AutogradTest, CatBackward) {
  Tensor a = MakeParam({2, 3}, 29);
  Tensor b = MakeParam({2, 2}, 30);
  CheckGradients(
      [&] {
        Tensor c = Cat({a, b}, 1);
        return SumAll(Mul(c, c));
      },
      {a, b});
}

TEST(AutogradTest, IndexSelectBackwardWithRepeats) {
  Tensor a = MakeParam({4, 3}, 31);
  CheckGradients(
      [&] {
        Tensor s = IndexSelect(a, 0, {0, 2, 2, 1});
        return SumAll(Mul(s, s));
      },
      {a});
}

TEST(AutogradTest, IndexSelectInnerDimBackward) {
  Tensor a = MakeParam({3, 5}, 63);
  CheckGradients(
      [&] {
        Tensor s = IndexSelect(a, 1, {4, 0, 0, 2});
        return SumAll(Mul(s, s));
      },
      {a});
}

TEST(AutogradTest, CatLeadingDimBackward) {
  Tensor a = MakeParam({2, 3}, 64);
  Tensor b = MakeParam({4, 3}, 65);
  CheckGradients(
      [&] {
        Tensor c = Cat({a, b}, 0);
        return SumAll(Mul(c, c));
      },
      {a, b});
}

TEST(AutogradTest, Conv2dStridedBackward) {
  Tensor x = MakeParam({1, 1, 6, 6}, 66);
  Tensor w = MakeParam({2, 1, 3, 3}, 67, 0.4f);
  CheckGradients(
      [&] {
        Tensor y = Conv2d(x, w, Tensor(), /*stride=*/2, /*padding=*/1);
        return SumAll(Mul(y, y));
      },
      {x, w}, 1e-2, 5e-2, 8e-3);
}

TEST(AutogradTest, Conv1dBackward) {
  Tensor x = MakeParam({2, 3, 8}, 32);
  Tensor w = MakeParam({4, 3, 3}, 33, 0.5f);
  Tensor b = MakeParam({4}, 34);
  CheckGradients(
      [&] {
        Tensor y = Conv1d(x, w, b, 1, 1);
        return SumAll(Mul(y, y));
      },
      {x, w, b}, 1e-2, 4e-2, 5e-3);
}

TEST(AutogradTest, Conv1dStridedDilatedBackward) {
  Tensor x = MakeParam({1, 2, 10}, 35);
  Tensor w = MakeParam({2, 2, 2}, 36, 0.5f);
  CheckGradients(
      [&] {
        Tensor y = Conv1d(x, w, Tensor(), 2, 0, 2);
        return SumAll(Mul(y, y));
      },
      {x, w}, 1e-2, 4e-2, 5e-3);
}

TEST(AutogradTest, Conv2dBackward) {
  Tensor x = MakeParam({1, 2, 5, 5}, 37);
  Tensor w = MakeParam({3, 2, 3, 3}, 38, 0.3f);
  Tensor b = MakeParam({3}, 39);
  CheckGradients(
      [&] {
        Tensor y = Conv2d(x, w, b, 1, 1);
        return SumAll(Mul(y, y));
      },
      {x, w, b}, 1e-2, 5e-2, 8e-3);
}

TEST(AutogradTest, GradAccumulatesWhenTensorReused) {
  Tensor a = MakeParam({3}, 40);
  Tensor loss = Add(SumAll(a), SumAll(a));
  loss.Backward();
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.Grad().data()[i], 2.0f, 1e-6);
  }
}

TEST(AutogradTest, RepeatedBackwardAccumulates) {
  Tensor a = MakeParam({2}, 41);
  SumAll(a).Backward();
  SumAll(a).Backward();
  EXPECT_NEAR(a.Grad().data()[0], 2.0f, 1e-6);
  a.ZeroGrad();
  EXPECT_FALSE(a.Grad().defined());
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor a = MakeParam({3}, 42);
  Tensor loss = SumAll(Mul(a.Detach(), a));
  loss.Backward();
  // d/da (a_detached * a) = a_detached (only one path).
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(a.Grad().data()[i], a.data()[i], 1e-5);
  }
}

TEST(AutogradTest, NoGradGuardSuppressesGraph) {
  Tensor a = MakeParam({3}, 43);
  NoGradGuard guard;
  Tensor y = Mul(a, a);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.grad_fn(), nullptr);
}

// The grad and inference modes are per thread: a guard held on one
// thread leaves every other thread recording tapes.
TEST(AutogradTest, ModeFlagsArePerThread) {
  Tensor a = MakeParam({3}, 47);
  {
    InferenceModeGuard inference;  // holds a NoGradGuard too
    bool grad = false, inference_mode = true, taped = false;
    std::thread other([&] {
      grad = GradMode::IsEnabled();
      inference_mode = InferenceMode::IsEnabled();
      taped = Mul(a, a).grad_fn() != nullptr;
    });
    other.join();
    EXPECT_TRUE(grad);
    EXPECT_FALSE(inference_mode);
    EXPECT_TRUE(taped);
    EXPECT_FALSE(GradMode::IsEnabled());
    EXPECT_TRUE(InferenceMode::IsEnabled());
  }
  // The other way round: while another thread holds the guards, this
  // thread still records.
  std::promise<void> entered, checked;
  std::thread holder([&] {
    InferenceModeGuard inference;
    entered.set_value();
    checked.get_future().wait();
  });
  entered.get_future().wait();
  EXPECT_TRUE(GradMode::IsEnabled());
  EXPECT_FALSE(InferenceMode::IsEnabled());
  EXPECT_NE(Mul(a, a).grad_fn(), nullptr);
  checked.set_value();
  holder.join();
}

TEST(AutogradTest, DiamondGraphAccumulatesBothPaths) {
  Tensor a = MakeParam({1}, 44);
  a.data()[0] = 3.0f;
  Tensor b = Mul(a, a);           // a^2
  Tensor loss = Add(b, Mul(b, a));  // a^2 + a^3
  loss.Backward();
  // d/da = 2a + 3a^2 = 6 + 27 = 33
  EXPECT_NEAR(a.Grad().Item(), 33.0f, 1e-4);
}

TEST(AutogradTest, BackwardOnLeafScalar) {
  Tensor a = MakeParam({1}, 45);
  a.Backward();
  EXPECT_NEAR(a.Grad().Item(), 1.0f, 1e-6);
}

TEST(AutogradTest, LongChainGradientIsStable) {
  Tensor a = MakeParam({4}, 46, 0.1f);
  CheckGradients(
      [&] {
        Tensor x = a;
        for (int i = 0; i < 10; ++i) x = Tanh(AddScalar(x, 0.01f));
        return SumAll(x);
      },
      {a});
}

}  // namespace
}  // namespace focus
