// Tests for NN modules: registration, shapes, gradcheck, attention
// invariants, dropout semantics.
#include <cmath>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/layers.h"
#include "tests/test_util.h"

namespace focus {
namespace {

using nn::Dropout;
using nn::FeedForward;
using nn::LayerNorm;
using nn::Linear;
using nn::MultiheadSelfAttention;
using nn::Sequential;
using nn::TransformerEncoderLayer;
using testing::CheckGradients;

TEST(ModuleTest, ParameterRegistryAndCounts) {
  Rng rng(1);
  Linear lin(8, 4, rng);
  EXPECT_EQ(lin.NumParameters(), 8 * 4 + 4);
  auto named = lin.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
  for (const auto& [name, p] : named) EXPECT_TRUE(p.requires_grad());
}

TEST(ModuleTest, NestedModuleNamesAreDotted) {
  Rng rng(2);
  FeedForward ffn(4, 8, rng);
  auto named = ffn.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "fc1.weight");
  EXPECT_EQ(named[2].first, "fc2.weight");
  EXPECT_EQ(ffn.NumParameters(), 4 * 8 + 8 + 8 * 4 + 4);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(3);
  Linear lin(3, 2, rng);
  Tensor x = Tensor::Ones({5, 3});
  SumAll(lin.Forward(x)).Backward();
  EXPECT_TRUE(lin.Parameters()[0].Grad().defined());
  lin.ZeroGrad();
  EXPECT_FALSE(lin.Parameters()[0].Grad().defined());
}

TEST(LinearTest, ForwardShapes) {
  Rng rng(4);
  Linear lin(6, 3, rng);
  EXPECT_EQ(lin.Forward(Tensor::Ones({2, 6})).shape(), (Shape{2, 3}));
  EXPECT_EQ(lin.Forward(Tensor::Ones({4, 5, 6})).shape(), (Shape{4, 5, 3}));
  EXPECT_EQ(lin.Forward(Tensor::Ones({2, 3, 5, 6})).shape(),
            (Shape{2, 3, 5, 3}));
}

TEST(LinearTest, NoBiasOption) {
  Rng rng(5);
  Linear lin(4, 2, rng, /*bias=*/false);
  EXPECT_EQ(lin.NumParameters(), 8);
  // f(0) should be exactly 0 without bias.
  Tensor y = lin.Forward(Tensor::Zeros({1, 4}));
  EXPECT_NEAR(y.At({0, 0}), 0.0f, 1e-7);
}

TEST(LinearTest, GradCheck) {
  Rng rng(6);
  Linear lin(5, 3, rng);
  Rng data_rng(7);
  Tensor x = Tensor::Randn({4, 5}, data_rng);
  x.SetRequiresGrad(true);
  auto params = lin.Parameters();
  params.push_back(x);
  CheckGradients([&] { return SumAll(Mul(lin.Forward(x), lin.Forward(x))); },
                 params);
}

TEST(LayerNormTest, GradCheck) {
  Rng rng(8);
  LayerNorm ln(6);
  Rng data_rng(9);
  Tensor x = Tensor::Randn({3, 6}, data_rng);
  x.SetRequiresGrad(true);
  Tensor w = Tensor::Randn({3, 6}, data_rng);
  auto params = ln.Parameters();
  params.push_back(x);
  CheckGradients([&] { return SumAll(Mul(ln.Forward(x), w)); }, params, 1e-2,
                 4e-2, 4e-3);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(10);
  Dropout drop(0.5f, rng);
  drop.SetTraining(false);
  Tensor x = Tensor::Ones({100});
  Tensor y = drop.Forward(x);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(y.data()[i], 1.0f);
}

TEST(DropoutTest, TrainingModeMasksAndRescales) {
  Rng rng(11);
  Dropout drop(0.5f, rng);
  drop.SetTraining(true);
  Tensor x = Tensor::Ones({10000});
  Tensor y = drop.Forward(x);
  int64_t zeros = 0;
  double sum = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.data()[i], 2.0f, 1e-6);  // 1 / (1 - 0.5)
    }
    sum += y.data()[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.03);
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.05);  // expectation preserved
}

TEST(SequentialTest, ComposesAndRegistersChildren) {
  Rng rng(12);
  auto seq = std::make_shared<Sequential>();
  seq->Append(std::make_shared<Linear>(4, 8, rng));
  seq->Append(std::make_shared<nn::ReluLayer>());
  seq->Append(std::make_shared<Linear>(8, 2, rng));
  EXPECT_EQ(seq->size(), 3u);
  EXPECT_EQ(seq->NumParameters(), 4 * 8 + 8 + 8 * 2 + 2);
  EXPECT_EQ(seq->Forward(Tensor::Ones({3, 4})).shape(), (Shape{3, 2}));
}

TEST(AttentionTest, SelfAttentionShapesAndGrad) {
  Rng rng(13);
  MultiheadSelfAttention attn(8, 2, rng);
  Rng data_rng(14);
  Tensor x = Tensor::Randn({2, 5, 8}, data_rng, 0.5f);
  Tensor y = attn.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8}));

  x.SetRequiresGrad(true);
  // Gradcheck a few parameters only (full sweep is slow): wq weight + input.
  std::vector<Tensor> subset = {attn.Parameters()[0], x};
  CheckGradients([&] { return SumAll(Mul(attn.Forward(x), attn.Forward(x))); },
                 subset, 1e-2, 5e-2, 6e-3);
}

TEST(AttentionTest, PermutationEquivariance) {
  // Self-attention without positional encodings is permutation-equivariant:
  // permuting input tokens permutes outputs the same way.
  Rng rng(17);
  MultiheadSelfAttention attn(4, 1, rng);
  Rng data_rng(18);
  Tensor x = Tensor::Randn({1, 4, 4}, data_rng);
  Tensor y = attn.Forward(x);

  std::vector<int64_t> perm = {2, 0, 3, 1};
  Tensor xp = IndexSelect(x, 1, perm);
  Tensor yp = attn.Forward(xp);
  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t d = 0; d < 4; ++d) {
      EXPECT_NEAR(yp.At({0, t, d}), y.At({0, perm[static_cast<size_t>(t)], d}),
                  1e-4);
    }
  }
}

TEST(TransformerTest, EncoderLayerPreservesShape) {
  Rng rng(19);
  TransformerEncoderLayer layer(8, 2, 16, rng);
  Rng data_rng(20);
  Tensor x = Tensor::Randn({3, 6, 8}, data_rng);
  EXPECT_EQ(layer.Forward(x).shape(), (Shape{3, 6, 8}));
}

TEST(TransformerTest, TrainingFlagPropagatesToChildren) {
  Rng rng(21);
  TransformerEncoderLayer layer(4, 1, 8, rng, /*dropout=*/0.2f);
  layer.SetTraining(false);
  // In eval mode the layer must be deterministic.
  Rng data_rng(22);
  Tensor x = Tensor::Randn({1, 3, 4}, data_rng);
  Tensor y1 = layer.Forward(x);
  Tensor y2 = layer.Forward(x);
  testing::ExpectTensorNear(y1, y2, 0.0);
}

}  // namespace
}  // namespace focus
