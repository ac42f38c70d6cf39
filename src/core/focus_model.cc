#include "core/focus_model.h"

#include <cmath>

#include "data/instance_norm.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace focus {
namespace core {

std::string FocusVariantName(FocusVariant variant) {
  switch (variant) {
    case FocusVariant::kFull: return "FOCUS";
    case FocusVariant::kAttn: return "FOCUS-Attn";
    case FocusVariant::kLnrFusion: return "FOCUS-LnrFusion";
    case FocusVariant::kAllLnr: return "FOCUS-AllLnr";
  }
  return "FOCUS";
}

FocusModel::FocusModel(const FocusConfig& config, Tensor prototypes)
    : config_(config) {
  FOCUS_CHECK_EQ(config.lookback % config.patch_len, 0)
      << "patch_len must divide lookback";
  num_patches_ = config.lookback / config.patch_len;
  Rng rng(config.seed);

  embed_ = std::make_shared<nn::Linear>(config.patch_len, config.d_model, rng);
  RegisterModule("embed", embed_);
  const float pos_bound = 1.0f / std::sqrt(static_cast<float>(config.d_model));
  temporal_pos_ = RegisterParameter(
      "temporal_pos", Tensor::RandUniform({num_patches_, config.d_model}, rng,
                                          -pos_bound, pos_bound));
  entity_pos_ = RegisterParameter(
      "entity_pos", Tensor::RandUniform({config.num_entities, config.d_model},
                                        rng, -pos_bound, pos_bound));

  FOCUS_CHECK_GE(config.num_layers, 1);
  const bool proto_extractor = config.variant == FocusVariant::kFull ||
                               config.variant == FocusVariant::kLnrFusion;
  for (int64_t layer = 0; layer < config.num_layers; ++layer) {
    const std::string suffix = std::to_string(layer);
    if (proto_extractor) {
      FOCUS_CHECK(prototypes.defined()) << "FOCUS needs offline prototypes";
      FOCUS_CHECK_EQ(prototypes.size(1), config.patch_len)
          << "prototype length must equal patch_len";
      temporal_protos_.push_back(std::make_shared<ProtoAttn>(
          prototypes, embed_, config.d_model, config.alpha, rng));
      entity_protos_.push_back(std::make_shared<ProtoAttn>(
          prototypes, embed_, config.d_model, config.alpha, rng));
      RegisterModule("temporal_proto" + suffix, temporal_protos_.back());
      RegisterModule("entity_proto" + suffix, entity_protos_.back());
    } else if (config.variant == FocusVariant::kAttn) {
      const int64_t heads = config.d_model % 4 == 0 ? 4 : 1;
      temporal_attns_.push_back(std::make_shared<nn::MultiheadSelfAttention>(
          config.d_model, heads, rng));
      entity_attns_.push_back(std::make_shared<nn::MultiheadSelfAttention>(
          config.d_model, heads, rng));
      RegisterModule("temporal_attn" + suffix, temporal_attns_.back());
      RegisterModule("entity_attn" + suffix, entity_attns_.back());
    } else {  // kAllLnr
      temporal_lnrs_.push_back(
          std::make_shared<nn::Linear>(config.d_model, config.d_model, rng));
      entity_lnrs_.push_back(
          std::make_shared<nn::Linear>(config.d_model, config.d_model, rng));
      RegisterModule("temporal_lnr" + suffix, temporal_lnrs_.back());
      RegisterModule("entity_lnr" + suffix, entity_lnrs_.back());
    }
    temporal_norms_.push_back(std::make_shared<nn::LayerNorm>(config.d_model));
    entity_norms_.push_back(std::make_shared<nn::LayerNorm>(config.d_model));
    RegisterModule("temporal_norm" + suffix, temporal_norms_.back());
    RegisterModule("entity_norm" + suffix, entity_norms_.back());
  }

  const bool fusion_module = config.variant == FocusVariant::kFull ||
                             config.variant == FocusVariant::kAttn;
  if (fusion_module) {
    const float bound = 1.0f / std::sqrt(static_cast<float>(num_patches_));
    readout_proj_t_ = RegisterParameter(
        "readout_proj_t",
        Tensor::RandUniform({config.readout_queries, num_patches_}, rng,
                            -bound, bound));
    readout_proj_e_ = RegisterParameter(
        "readout_proj_e",
        Tensor::RandUniform({config.readout_queries, num_patches_}, rng,
                            -bound, bound));
    gate_ = std::make_shared<nn::Linear>(2 * config.d_model, config.d_model,
                                         rng);
    head_ = std::make_shared<nn::Linear>(
        config.readout_queries * config.d_model, config.horizon, rng);
    RegisterModule("gate", gate_);
    RegisterModule("head", head_);
  } else {
    const int64_t flat = num_patches_ * config.d_model;
    lnr_gate_ = std::make_shared<nn::Linear>(2 * flat, flat, rng);
    lnr_head_ = std::make_shared<nn::Linear>(flat, config.horizon, rng);
    RegisterModule("lnr_gate", lnr_gate_);
    RegisterModule("lnr_head", lnr_head_);
  }
}

std::string FocusModel::name() const {
  return FocusVariantName(config_.variant);
}

Tensor FocusModel::ExtractFeatures(const Tensor& raw, const Tensor& emb,
                                   bool temporal) {
  Tensor h = emb;
  for (int64_t layer = 0; layer < config_.num_layers; ++layer) {
    const size_t i = static_cast<size_t>(layer);
    Tensor features;
    switch (config_.variant) {
      case FocusVariant::kFull:
      case FocusVariant::kLnrFusion:
        features = temporal ? temporal_protos_[i]->Forward(raw, h)
                            : entity_protos_[i]->Forward(raw, h);
        break;
      case FocusVariant::kAttn:
        features = temporal ? temporal_attns_[i]->Forward(h)
                            : entity_attns_[i]->Forward(h);
        break;
      case FocusVariant::kAllLnr:
        features = temporal ? temporal_lnrs_[i]->Forward(h)
                            : entity_lnrs_[i]->Forward(h);
        break;
    }
    // Residual + LayerNorm (Algorithm 3).
    Tensor summed = Add(features, h);
    h = temporal ? temporal_norms_[i]->Forward(summed)
                 : entity_norms_[i]->Forward(summed);
  }
  return h;
}

Tensor FocusModel::Fuse(const Tensor& h_t, const Tensor& h_e) {
  const int64_t bn = h_t.size(0);
  const int64_t l = h_t.size(1);
  const int64_t d = config_.d_model;

  if (config_.variant == FocusVariant::kFull ||
      config_.variant == FocusVariant::kAttn) {
    // Readout queries generated from the input features (Algorithm 4 l.1),
    // then cross-attention over the l branch tokens (l.2-4).
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    Tensor q_t = MatMul(readout_proj_t_, h_t);  // (bn, m, d)
    Tensor q_e = MatMul(readout_proj_e_, h_e);
    Tensor a_t = SoftmaxLastDim(MatMul(q_t, Transpose(h_t, 1, 2)), scale);
    Tensor a_e = SoftmaxLastDim(MatMul(q_e, Transpose(h_e, 1, 2)), scale);
    Tensor f_t = MatMul(a_t, h_t);  // (bn, m, d)
    Tensor f_e = MatMul(a_e, h_e);  // (bn, m, d)
    // Gate (Algorithm 4 l.5-7).
    Tensor f_proj = Cat({f_t, f_e}, -1);            // (bn, m, 2d)
    Tensor g = Sigmoid(gate_->Forward(f_proj));     // (bn, m, d)
    Tensor mixed = Add(Mul(g, f_t),
                       Mul(AddScalar(Neg(g), 1.0f), f_e));  // g*t + (1-g)*e
    return head_->Forward(
        Reshape(mixed, {bn, config_.readout_queries * d}));
  }

  // Gated-linear fusion (FOCUS-LnrFusion / FOCUS-AllLnr).
  Tensor flat_t = Reshape(h_t, {bn, l * d});
  Tensor flat_e = Reshape(h_e, {bn, l * d});
  Tensor g = Sigmoid(lnr_gate_->Forward(Cat({flat_t, flat_e}, -1)));
  Tensor mixed =
      Add(Mul(g, flat_t), Mul(AddScalar(Neg(g), 1.0f), flat_e));
  return lnr_head_->Forward(mixed);
}

Tensor FocusModel::Forward(const Tensor& x) {
  FOCUS_CHECK_EQ(x.dim(), 3) << "FocusModel expects (B, N, L)";
  FOCUS_CHECK_EQ(x.size(2), config_.lookback);
  const int64_t b = x.size(0), n = x.size(1);
  const int64_t l = num_patches_, p = config_.patch_len;

  data::InstanceNorm inorm;
  Tensor xn = config_.instance_norm ? inorm.Normalize(x) : x;

  // --- Temporal branch: tokens are an entity's l consecutive segments. ---
  Tensor raw_t = Reshape(xn, {b * n, l, p});
  Tensor emb_t;
  {
    obs::TraceSpan span("focus/embed");
    emb_t = embed_->Forward(raw_t);                      // (b*n, l, d)
    if (config_.positional_embedding) emb_t = Add(emb_t, temporal_pos_);
  }
  Tensor h_t;
  {
    obs::TraceSpan span("focus/temporal_branch");
    h_t = ExtractFeatures(raw_t, emb_t, /*temporal=*/true);
  }

  // --- Entity branch: tokens are the N entities at one temporal position. --
  Tensor raw_e = Reshape(xn, {b, n, l, p});
  raw_e = Permute(raw_e, {0, 2, 1, 3});                  // (b, l, n, p)
  raw_e = Reshape(raw_e, {b * l, n, p});
  FOCUS_CHECK_EQ(n, config_.num_entities)
      << "input entity count differs from the configured model";
  Tensor emb_e;
  {
    obs::TraceSpan span("focus/embed");
    emb_e = embed_->Forward(raw_e);                      // (b*l, n, d)
    if (config_.positional_embedding) emb_e = Add(emb_e, entity_pos_);
  }
  Tensor h_e;
  {
    obs::TraceSpan span("focus/entity_branch");
    h_e = ExtractFeatures(raw_e, emb_e, /*temporal=*/false);
  }

  // Regroup entity-branch features per entity: (b*l, n, d) -> (b*n, l, d).
  h_e = Reshape(h_e, {b, l, n, config_.d_model});
  h_e = Permute(h_e, {0, 2, 1, 3});
  h_e = Reshape(h_e, {b * n, l, config_.d_model});

  Tensor forecast;
  {
    obs::TraceSpan span("focus/fusion");
    forecast = Fuse(h_t, h_e);                           // (b*n, Lf)
  }
  forecast = Reshape(forecast, {b, n, config_.horizon});
  return config_.instance_norm ? inorm.Denormalize(forecast) : forecast;
}

}  // namespace core
}  // namespace focus
