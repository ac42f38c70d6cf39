// Tests for ProtoAttn and the FOCUS model: shapes across a parameter grid,
// the Eq. 19 identical-rows property, linear-vs-quadratic FLOP scaling,
// ablation variants, gradient flow, and end-to-end overfitting.
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/focus_model.h"
#include "core/offline.h"
#include "core/proto_attn.h"
#include "data/generator.h"
#include "data/window.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "tensor/flops.h"
#include "tests/test_util.h"

namespace focus {
namespace {

using core::FocusConfig;
using core::FocusModel;
using core::FocusVariant;
using core::ProtoAttn;

Tensor MakePrototypes(int64_t k, int64_t p, uint64_t seed) {
  Rng rng(seed);
  // Shape-space-like prototypes: zero-mean, unit-ish scale.
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

TEST(ProtoAttnTest, OutputShape) {
  Rng rng(1);
  auto embed = std::make_shared<nn::Linear>(8, 16, rng);
  ProtoAttn attn(MakePrototypes(4, 8, 2), embed, 16, 0.2f, rng);
  Rng data_rng(3);
  Tensor raw = Tensor::Randn({3, 5, 8}, data_rng);
  Tensor emb = embed->Forward(raw);
  Tensor out = attn.Forward(raw, emb);
  EXPECT_EQ(out.shape(), (Shape{3, 5, 16}));
  EXPECT_EQ(attn.last_assignment().shape(), (Shape{3, 5, 4}));
  EXPECT_EQ(attn.last_attention().shape(), (Shape{3, 4, 5}));
}

TEST(ProtoAttnTest, AssignmentMatrixIsOneHot) {
  Rng rng(4);
  auto embed = std::make_shared<nn::Linear>(8, 16, rng);
  ProtoAttn attn(MakePrototypes(6, 8, 5), embed, 16, 0.2f, rng);
  Rng data_rng(6);
  Tensor raw = Tensor::Randn({2, 7, 8}, data_rng);
  attn.Forward(raw, embed->Forward(raw));
  const Tensor& a = attn.last_assignment();
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t l = 0; l < 7; ++l) {
      float sum = 0;
      for (int64_t k = 0; k < 6; ++k) {
        const float v = a.At({b, l, k});
        EXPECT_TRUE(v == 0.0f || v == 1.0f);
        sum += v;
      }
      EXPECT_EQ(sum, 1.0f);  // exactly one bucket per token
    }
  }
}

// The Fig. 13 diagnostics are recorded outside inference mode only: an
// inference forward, which serving and plan capture run, writes nothing
// to the module.
TEST(ProtoAttnTest, InferenceForwardLeavesDiagnostics) {
  Rng rng(7);
  auto embed = std::make_shared<nn::Linear>(8, 16, rng);
  ProtoAttn attn(MakePrototypes(4, 8, 8), embed, 16, 0.2f, rng);
  Rng data_rng(9);
  Tensor raw = Tensor::Randn({2, 5, 8}, data_rng);
  Tensor raw2 = Tensor::Randn({3, 6, 8}, data_rng);
  {
    InferenceModeGuard inference;
    attn.Forward(raw, embed->Forward(raw));
  }
  EXPECT_FALSE(attn.last_assignment().defined());
  EXPECT_FALSE(attn.last_attention().defined());

  attn.Forward(raw, embed->Forward(raw));  // grad mode records
  const Tensor assignment = attn.last_assignment();
  const Tensor attention = attn.last_attention();
  EXPECT_EQ(assignment.shape(), (Shape{2, 5, 4}));
  EXPECT_EQ(attention.shape(), (Shape{2, 4, 5}));
  {
    InferenceModeGuard inference;
    attn.Forward(raw2, embed->Forward(raw2));
  }
  EXPECT_EQ(attn.last_assignment().impl(), assignment.impl());
  EXPECT_EQ(attn.last_attention().impl(), attention.impl());

  {
    NoGradGuard no_grad;  // no tape, but still records
    attn.Forward(raw2, embed->Forward(raw2));
  }
  EXPECT_EQ(attn.last_assignment().shape(), (Shape{3, 6, 4}));
  EXPECT_EQ(attn.last_attention().shape(), (Shape{3, 4, 6}));
}

TEST(ProtoAttnTest, Equation19SameAssignmentSameOutput) {
  // Tokens assigned to the same prototype must receive identical attention
  // output rows (paper Eq. 19) even if their raw values differ.
  Rng rng(7);
  auto embed = std::make_shared<nn::Linear>(8, 16, rng);
  Tensor protos = MakePrototypes(2, 8, 8);
  ProtoAttn attn(protos, embed, 16, 0.2f, rng);

  // Two tokens that are scaled copies of prototype 0 (same shape space),
  // one copy of prototype 1.
  Tensor raw = Tensor::Empty({1, 3, 8});
  for (int64_t d = 0; d < 8; ++d) {
    raw.data()[0 * 8 + d] = protos.At({0, d}) * 2.0f + 5.0f;
    raw.data()[1 * 8 + d] = protos.At({0, d}) * 0.5f - 1.0f;
    raw.data()[2 * 8 + d] = protos.At({1, d});
  }
  Tensor out = attn.Forward(raw, embed->Forward(raw));
  auto assigns = attn.AssignTokens(raw);
  ASSERT_EQ(assigns[0], assigns[1]);
  ASSERT_NE(assigns[0], assigns[2]);
  for (int64_t d = 0; d < 16; ++d) {
    EXPECT_NEAR(out.At({0, 0, d}), out.At({0, 1, d}), 1e-5)
        << "rows with equal assignment must match (Eq. 19)";
  }
}

TEST(ProtoAttnTest, FlopsScaleLinearlyInTokens) {
  // Doubling l must ~double ProtoAttn FLOPs (paper's central claim), while
  // full self-attention quadruples its score computation.
  Rng rng(9);
  auto embed = std::make_shared<nn::Linear>(8, 32, rng);
  ProtoAttn attn(MakePrototypes(8, 8, 10), embed, 32, 0.2f, rng);
  Rng data_rng(11);

  auto flops_for = [&](int64_t l) {
    Tensor raw = Tensor::Randn({1, l, 8}, data_rng);
    Tensor emb = embed->Forward(raw);
    NoGradGuard no_grad;
    FlopScope scope;
    attn.Forward(raw, emb);
    return static_cast<double>(scope.Elapsed());
  };
  const double f1 = flops_for(32);
  const double f2 = flops_for(64);
  const double f4 = flops_for(128);
  EXPECT_NEAR(f2 / f1, 2.0, 0.25);
  EXPECT_NEAR(f4 / f2, 2.0, 0.25);
}

TEST(ProtoAttnTest, GradientsFlowToProjections) {
  Rng rng(12);
  auto embed = std::make_shared<nn::Linear>(8, 16, rng);
  ProtoAttn attn(MakePrototypes(4, 8, 13), embed, 16, 0.2f, rng);
  Rng data_rng(14);
  Tensor raw = Tensor::Randn({2, 4, 8}, data_rng);
  Tensor emb = embed->Forward(raw);
  SumAll(attn.Forward(raw, emb)).Backward();
  for (const auto& [pname, param] : attn.NamedParameters()) {
    EXPECT_TRUE(param.Grad().defined()) << pname << " got no gradient";
  }
  // The shared embedding receives gradient through K/V too.
  EXPECT_TRUE(embed->Parameters()[0].Grad().defined());
}

// --- FocusModel -------------------------------------------------------------

struct ShapeCase {
  int64_t batch, entities, lookback, horizon, patch, k, d, m;
};

class FocusShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(FocusShapeTest, ForwardShape) {
  const ShapeCase& c = GetParam();
  FocusConfig cfg;
  cfg.lookback = c.lookback;
  cfg.horizon = c.horizon;
  cfg.num_entities = c.entities;
  cfg.patch_len = c.patch;
  cfg.d_model = c.d;
  cfg.readout_queries = c.m;
  cfg.seed = 15;
  FocusModel model(cfg, MakePrototypes(c.k, c.patch, 16));
  Rng data_rng(17);
  Tensor x = Tensor::Randn({c.batch, c.entities, c.lookback}, data_rng);
  Tensor y = model.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{c.batch, c.entities, c.horizon}));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FocusShapeTest,
    ::testing::Values(ShapeCase{1, 2, 32, 8, 8, 4, 16, 2},
                      ShapeCase{2, 3, 64, 16, 16, 8, 32, 4},
                      ShapeCase{3, 1, 48, 24, 8, 4, 16, 6},
                      ShapeCase{2, 5, 96, 12, 12, 6, 24, 3}));

TEST(FocusModelTest, AllVariantsForwardAndName) {
  for (auto variant : {FocusVariant::kFull, FocusVariant::kAttn,
                       FocusVariant::kLnrFusion, FocusVariant::kAllLnr}) {
    FocusConfig cfg;
    cfg.lookback = 32;
    cfg.horizon = 8;
    cfg.num_entities = 3;
    cfg.patch_len = 8;
    cfg.d_model = 16;
    cfg.readout_queries = 2;
    cfg.variant = variant;
    cfg.seed = 18;
    FocusModel model(cfg, MakePrototypes(4, 8, 19));
    Rng data_rng(20);
    Tensor x = Tensor::Randn({2, 3, 32}, data_rng);
    EXPECT_EQ(model.Forward(x).shape(), (Shape{2, 3, 8}));
    EXPECT_FALSE(model.name().empty());
  }
  EXPECT_EQ(core::FocusVariantName(FocusVariant::kLnrFusion),
            "FOCUS-LnrFusion");
}

TEST(FocusModelTest, LnrFusionHasMoreParamsThanFull) {
  // Matches the paper's Table IV: the gated-linear fusion variant carries
  // more parameters than the readout-query fusion.
  auto make = [](FocusVariant v) {
    FocusConfig cfg;
    cfg.lookback = 64;
    cfg.horizon = 16;
    cfg.num_entities = 3;
    cfg.patch_len = 8;
    cfg.d_model = 32;
    cfg.readout_queries = 4;
    cfg.variant = v;
    cfg.seed = 21;
    return std::make_unique<FocusModel>(cfg, MakePrototypes(8, 8, 22));
  };
  EXPECT_GT(make(FocusVariant::kLnrFusion)->NumParameters(),
            make(FocusVariant::kFull)->NumParameters());
}

TEST(FocusModelTest, AttnVariantCostsMoreFlops) {
  auto flops_of = [](FocusVariant v) {
    FocusConfig cfg;
    cfg.lookback = 128;
    cfg.horizon = 16;
    cfg.num_entities = 4;
    cfg.patch_len = 8;
    cfg.d_model = 32;
    cfg.readout_queries = 4;
    cfg.variant = v;
    cfg.seed = 23;
    FocusModel model(cfg, MakePrototypes(4, 8, 24));
    model.SetTraining(false);
    Rng data_rng(25);
    Tensor x = Tensor::Randn({1, 4, 128}, data_rng);
    NoGradGuard no_grad;
    FlopScope scope;
    model.Forward(x);
    return scope.Elapsed();
  };
  // 16 temporal tokens vs 4 prototypes: self-attention must cost more.
  EXPECT_GT(flops_of(FocusVariant::kAttn), flops_of(FocusVariant::kFull));
}

TEST(FocusModelTest, SpanSelfFlopsAccountForForward) {
  // TraceSpan self-FLOPs are the only per-component FLOP attribution
  // (Fig. 6's breakdown), so they must account for a forward exactly: the
  // root span sees the forward's FlopScope delta, the spans' self-FLOPs
  // sum to it with nothing lost or counted twice, and each stage is
  // nonzero. Under the tracer's defaults only component spans are
  // recorded: the tensor kernels emit none.
  FocusConfig cfg;
  cfg.lookback = 64;
  cfg.horizon = 16;
  cfg.num_entities = 3;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 4;
  cfg.seed = 26;
  FocusModel model(cfg, MakePrototypes(4, 8, 27));
  model.SetTraining(false);
  Rng data_rng(28);
  Tensor x = Tensor::Randn({2, 3, 64}, data_rng);

  auto& tracer = obs::Tracer::Get();
  tracer.Clear();
  tracer.Enable();
  int64_t forward_flops = 0;
  {
    InferenceModeGuard inference;
    obs::TraceSpan root("test/forward");
    FlopScope scope;
    model.Forward(x);
    forward_flops = scope.Elapsed();
  }
  tracer.Disable();
  const std::vector<obs::SpanEvent> events = tracer.Snapshot();
  tracer.Clear();

  std::set<std::string> names;
  int64_t root_flops = -1, self_sum = 0;
  for (const obs::SpanEvent& ev : events) {
    names.insert(ev.name);
    if (ev.name == "test/forward") root_flops = ev.flops;
    self_sum += ev.self_flops;
  }
  EXPECT_GT(forward_flops, 0);
  EXPECT_EQ(root_flops, forward_flops);
  EXPECT_EQ(self_sum, root_flops);
  EXPECT_EQ(names, (std::set<std::string>{
                       "test/forward", "focus/embed", "focus/temporal_branch",
                       "focus/entity_branch", "focus/proto_attn",
                       "focus/fusion"}));
  const auto agg = obs::AggregateSpans(events);
  for (const char* stage : {"focus/embed", "focus/temporal_branch",
                            "focus/entity_branch", "focus/proto_attn",
                            "focus/fusion"}) {
    int64_t self_flops = 0;
    for (const auto& [name, stats] : agg) {
      if (name == stage) self_flops = stats.self_flops;
    }
    EXPECT_GT(self_flops, 0) << stage;
  }
}

TEST(FocusModelTest, MultiLayerExtractorStacks) {
  FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 2;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 50;
  cfg.num_layers = 1;
  FocusModel one(cfg, MakePrototypes(4, 8, 51));
  cfg.num_layers = 3;
  FocusModel three(cfg, MakePrototypes(4, 8, 51));
  // Three layers carry strictly more parameters, still forward cleanly,
  // and gradients reach every layer's weights.
  EXPECT_GT(three.NumParameters(), one.NumParameters());
  Rng data_rng(52);
  Tensor x = Tensor::Randn({2, 2, 32}, data_rng);
  EXPECT_EQ(three.Forward(x).shape(), (Shape{2, 2, 8}));
  MseLoss(three.Forward(x), Tensor::Zeros({2, 2, 8})).Backward();
  for (const auto& [pname, param] : three.NamedParameters()) {
    EXPECT_TRUE(param.Grad().defined()) << pname;
  }
}

TEST(FocusModelTest, PositionalEmbeddingFlagChangesBehaviour) {
  FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 2;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 53;
  FocusModel with_pos(cfg, MakePrototypes(4, 8, 54));
  cfg.positional_embedding = false;
  FocusModel without_pos(cfg, MakePrototypes(4, 8, 54));
  with_pos.SetTraining(false);
  without_pos.SetTraining(false);
  Rng data_rng(55);
  Tensor x = Tensor::Randn({1, 2, 32}, data_rng);
  NoGradGuard no_grad;
  Tensor a = with_pos.Forward(x);
  Tensor b = without_pos.Forward(x);
  bool differs = false;
  for (int64_t i = 0; i < a.numel() && !differs; ++i) {
    differs = std::fabs(a.data()[i] - b.data()[i]) > 1e-6f;
  }
  EXPECT_TRUE(differs);
}

TEST(FocusModelTest, InstanceNormMakesOutputScaleCovariant) {
  FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 2;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 26;
  FocusModel model(cfg, MakePrototypes(4, 8, 27));
  model.SetTraining(false);
  Rng data_rng(28);
  Tensor x = Tensor::Randn({1, 2, 32}, data_rng);
  Tensor y1 = model.Forward(x);
  // Affine-transform the input; instance norm should make the output follow
  // the same affine map (shape space is shared).
  Tensor x2 = AddScalar(MulScalar(x, 3.0f), 10.0f);
  Tensor y2 = model.Forward(x2);
  for (int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_NEAR(y2.data()[i], 3.0f * y1.data()[i] + 10.0f, 2e-2f);
  }
}

TEST(FocusModelTest, GradientsReachAllParameters) {
  FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 2;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 29;
  FocusModel model(cfg, MakePrototypes(4, 8, 30));
  Rng data_rng(31);
  Tensor x = Tensor::Randn({2, 2, 32}, data_rng);
  Tensor y = Tensor::Randn({2, 2, 8}, data_rng);
  MseLoss(model.Forward(x), y).Backward();
  for (const auto& [pname, param] : model.NamedParameters()) {
    EXPECT_TRUE(param.Grad().defined()) << pname << " got no gradient";
  }
}

TEST(FocusModelTest, EndToEndGradientCheck) {
  // Numerical gradient check through the entire composite graph (instance
  // norm -> embedding -> ProtoAttn x2 -> fusion -> denorm) on a tiny
  // config, for a few small parameter tensors.
  FocusConfig cfg;
  cfg.lookback = 16;
  cfg.horizon = 4;
  cfg.num_entities = 2;
  cfg.patch_len = 4;
  cfg.d_model = 8;
  cfg.readout_queries = 2;
  cfg.seed = 60;
  FocusModel model(cfg, MakePrototypes(3, 4, 61));
  Rng data_rng(62);
  Tensor x = Tensor::Randn({1, 2, 16}, data_rng);
  Tensor target = Tensor::Randn({1, 2, 4}, data_rng);

  std::vector<Tensor> probe_params;
  for (const auto& [pname, param] : model.NamedParameters()) {
    // Small, load-bearing tensors from distinct stages.
    if (pname == "temporal_norm0.gamma" || pname == "gate.bias" ||
        pname == "readout_proj_t" || pname == "embed.bias") {
      probe_params.push_back(param);
    }
  }
  ASSERT_EQ(probe_params.size(), 4u);
  testing::CheckGradients(
      [&] { return MseLoss(model.Forward(x), target); }, probe_params, 1e-2,
      6e-2, 8e-3);
}

TEST(FocusModelTest, OverfitsTinyDataset) {
  // End-to-end sanity: FOCUS + AdamW drives training loss near zero on a
  // small repeating problem.
  data::GeneratorConfig gen;
  gen.num_entities = 2;
  gen.num_steps = 400;
  gen.steps_per_day = 32;
  gen.noise_std = 0.02f;
  gen.event_rate = 0.0f;
  gen.seed = 32;
  Tensor values = data::Generate(gen).values;

  core::OfflineConfig off;
  off.patch_len = 8;
  off.num_prototypes = 6;
  off.seed = 33;
  auto protos = core::RunOfflineClustering(values, off);

  FocusConfig cfg;
  cfg.lookback = 64;
  cfg.horizon = 16;
  cfg.num_entities = 2;
  cfg.patch_len = 8;
  cfg.d_model = 24;
  cfg.readout_queries = 3;
  cfg.seed = 34;
  FocusModel model(cfg, protos.prototypes);

  data::WindowDataset windows(values, 64, 16, 0, 400);
  auto batch = windows.GetBatch({0, 40, 80, 120});
  optim::AdamW opt(model.Parameters(), 0.01f, 1e-4f);
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    opt.ZeroGrad();
    Tensor loss = MseLoss(model.Forward(batch.x), batch.y);
    if (step == 0) first = loss.Item();
    last = loss.Item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, 0.25f * first);
}

}  // namespace
}  // namespace focus
