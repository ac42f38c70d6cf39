// AdamW behaviour: convergence on convex problems, decoupled decay, the
// exact first step of the shared update, gradient clipping.
#include "optim/optimizer.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "tensor/ops.h"

namespace focus {
namespace {

// Minimizes ||x - target||^2 with AdamW; returns the final loss.
float MinimizeQuadratic(int steps, float lr, float weight_decay) {
  Rng rng(77);
  Tensor x = Tensor::Randn({8}, rng, 3.0f);
  x.SetRequiresGrad(true);
  Tensor target = Tensor::Arange(8);
  optim::AdamW opt({x}, lr, weight_decay);
  float loss_val = 0.0f;
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Tensor loss = MseLoss(x, target);
    loss.Backward();
    opt.Step();
    loss_val = loss.Item();
  }
  return loss_val;
}

TEST(OptimTest, AdamConvergesOnQuadratic) {
  // AdamW with no decay is plain Adam. Its per-coordinate step is bounded
  // by ~lr, and targets are up to 7 units away, so give it enough steps.
  EXPECT_LT(MinimizeQuadratic(600, 0.2f, 0.0f), 1e-3f);
}

TEST(OptimTest, AdamWConvergesOnQuadratic) {
  // Small decay still converges near the target.
  EXPECT_LT(MinimizeQuadratic(600, 0.2f, 1e-4f), 1e-2f);
}

TEST(OptimTest, AdamWDecayIsDecoupledFromGradientScale) {
  // With zero gradient, AdamW should still shrink weights, and the shrink
  // factor per step must be exactly (1 - lr * wd) independent of any
  // gradient history — the decoupling property.
  Tensor w = Tensor::Full({4}, 2.0f);
  w.SetRequiresGrad(true);
  optim::AdamW opt({w}, /*lr=*/0.1f, /*weight_decay=*/0.5f);
  // Manually install a zero gradient so Step() does not skip the param.
  SumAll(MulScalar(w, 0.0f)).Backward();
  opt.Step();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.data()[i], 2.0f * (1.0f - 0.1f * 0.5f), 1e-5f);
  }
}

TEST(OptimTest, AdamWUpdateFirstStepIsExact) {
  // At t = 1 the bias corrections cancel the moment weights, so the update
  // is p -= lr * wd * p, then p -= lr * g / (|g| + eps). With power-of-two
  // gradients every moment product and quotient is exact in float, so the
  // shared update must reproduce the closed form bit for bit.
  const float lr = 0.1f, wd = 0.25f;
  std::vector<float> param = {1.5f, -0.75f, 3.0f, 0.1f, -2.0f};
  const std::vector<float> grad = {1.0f, -2.0f, 0.5f, 0.0f, 4.0f};
  std::vector<float> m(param.size(), 0.0f), v(param.size(), 0.0f);
  std::vector<float> expect = param;
  for (size_t j = 0; j < expect.size(); ++j) {
    expect[j] -= lr * wd * expect[j];
    expect[j] -= lr * grad[j] / (std::fabs(grad[j]) + optim::kAdamEps);
  }
  optim::AdamWUpdate(param, grad, m, v, /*t=*/1, lr, wd);
  for (size_t j = 0; j < param.size(); ++j) {
    EXPECT_EQ(param[j], expect[j]) << "element " << j;
    EXPECT_EQ(m[j], (1.0f - optim::kAdamBeta1) * grad[j]);
    EXPECT_EQ(v[j], (1.0f - optim::kAdamBeta2) * grad[j] * grad[j]);
  }
}

TEST(OptimTest, StepSkipsParamsWithoutGrad) {
  Tensor a = Tensor::Full({2}, 1.0f);
  a.SetRequiresGrad(true);
  Tensor b = Tensor::Full({2}, 1.0f);
  b.SetRequiresGrad(true);
  optim::AdamW opt({a, b}, 0.5f, /*weight_decay=*/0.0f);
  SumAll(a).Backward();  // only a gets a gradient
  opt.Step();
  // Adam's first step moves each coordinate by lr * g / |g| = lr.
  EXPECT_NEAR(a.data()[0], 0.5f, 1e-6f);
  EXPECT_NEAR(b.data()[0], 1.0f, 1e-6f);
}

TEST(OptimTest, ClipGradNormScalesDown) {
  Tensor a = Tensor::Full({4}, 1.0f);
  a.SetRequiresGrad(true);
  SumAll(MulScalar(a, 3.0f)).Backward();  // grad = 3 everywhere, norm = 6
  const float pre = optim::ClipGradNorm({a}, 1.0f);
  EXPECT_NEAR(pre, 6.0f, 1e-5f);
  double sq = 0;
  for (int64_t i = 0; i < 4; ++i) {
    sq += a.Grad().data()[i] * a.Grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-5);
}

TEST(OptimTest, ClipGradNormNoOpWhenBelowThreshold) {
  Tensor a = Tensor::Full({4}, 1.0f);
  a.SetRequiresGrad(true);
  SumAll(a).Backward();  // grad = 1 everywhere, norm = 2
  optim::ClipGradNorm({a}, 10.0f);
  EXPECT_NEAR(a.Grad().data()[0], 1.0f, 1e-6f);
}

TEST(OptimTest, TrainsLinearRegressionToKnownWeights) {
  // y = 2x0 - 3x1 + 1; a Linear layer must recover the mapping.
  Rng rng(123);
  nn::Linear lin(2, 1, rng);
  optim::AdamW opt(lin.Parameters(), 0.05f, /*weight_decay=*/0.0f);
  Rng data_rng(321);
  for (int step = 0; step < 500; ++step) {
    Tensor x = Tensor::Randn({16, 2}, data_rng);
    Tensor y = Tensor::Empty({16, 1});
    for (int64_t i = 0; i < 16; ++i) {
      y.data()[i] = 2.0f * x.At({i, 0}) - 3.0f * x.At({i, 1}) + 1.0f;
    }
    opt.ZeroGrad();
    MseLoss(lin.Forward(x), y).Backward();
    opt.Step();
  }
  const Tensor& w = lin.weight();
  EXPECT_NEAR(w.At({0, 0}), 2.0f, 0.05f);
  EXPECT_NEAR(w.At({1, 0}), -3.0f, 0.05f);
}

}  // namespace
}  // namespace focus
