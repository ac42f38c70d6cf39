#include "baselines/informer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/common.h"
#include "data/instance_norm.h"
#include "tensor/ops.h"

namespace focus {
namespace baselines {

InformerLite::InformerLite(const InformerConfig& config)
    : config_(config), sample_rng_(config.seed ^ 0x1f0f) {
  FOCUS_CHECK_EQ(config.lookback % config.patch_len, 0)
      << "patch_len must divide lookback";
  num_patches_ = config.lookback / config.patch_len;
  Rng rng(config.seed);
  embed_ = std::make_shared<nn::Linear>(config.patch_len, config.d_model, rng);
  const float bound = 1.0f / std::sqrt(static_cast<float>(config.d_model));
  positional_ = RegisterParameter(
      "positional", Tensor::RandUniform({num_patches_, config.d_model}, rng,
                                        -bound, bound));
  wq_ = std::make_shared<nn::Linear>(config.d_model, config.d_model, rng);
  wk_ = std::make_shared<nn::Linear>(config.d_model, config.d_model, rng);
  wv_ = std::make_shared<nn::Linear>(config.d_model, config.d_model, rng);
  wo_ = std::make_shared<nn::Linear>(config.d_model, config.d_model, rng);
  norm1_ = std::make_shared<nn::LayerNorm>(config.d_model);
  norm2_ = std::make_shared<nn::LayerNorm>(config.d_model);
  ffn_ = std::make_shared<nn::FeedForward>(config.d_model, 2 * config.d_model,
                                           rng);
  head_ = std::make_shared<nn::Linear>(num_patches_ * config.d_model,
                                       config.horizon, rng);
  RegisterModule("embed", embed_);
  RegisterModule("wq", wq_);
  RegisterModule("wk", wk_);
  RegisterModule("wv", wv_);
  RegisterModule("wo", wo_);
  RegisterModule("norm1", norm1_);
  RegisterModule("norm2", norm2_);
  RegisterModule("ffn", ffn_);
  RegisterModule("head", head_);
}

int64_t InformerLite::ActiveQueries(int64_t num_tokens) const {
  const int64_t u = static_cast<int64_t>(
      std::ceil(config_.sparsity_factor * std::log(
                    std::max<double>(2.0, static_cast<double>(num_tokens)))));
  return std::min(num_tokens, std::max<int64_t>(u, 1));
}

Tensor InformerLite::Forward(const Tensor& x) {
  FOCUS_CHECK_EQ(x.dim(), 3) << "Informer expects (B, N, L)";
  FOCUS_CHECK_EQ(x.size(2), config_.lookback);
  const int64_t b = x.size(0), n = x.size(1);
  const int64_t l = num_patches_, d = config_.d_model;

  data::InstanceNorm inorm;
  Tensor xn = inorm.Normalize(x);

  Tensor tokens = embed_->Forward(
      Reshape(xn, {b * n, l, config_.patch_len}));
  tokens = Add(tokens, positional_);

  Tensor q = wq_->Forward(tokens);
  Tensor k = wk_->Forward(tokens);
  Tensor v = wv_->Forward(tokens);

  // --- ProbSparse selection (non-differentiable, batch-shared). ----------
  // Sparsity measure M(q_i) = max_j s_ij - mean_j s_ij over sampled keys,
  // averaged over the batch; the top-u queries attend fully.
  const int64_t u = ActiveQueries(l);
  std::vector<double> measure(static_cast<size_t>(l), 0.0);
  {
    NoGradGuard no_grad;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    const float* pq = q.data();
    const float* pk = k.data();
    const int64_t rows = b * n;
    // Key subsample of size ~u*ln(l) as in the paper; with small l we use
    // all keys (the estimate is then exact).
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t i = 0; i < l; ++i) {
        double max_s = -1e30, mean_s = 0;
        for (int64_t j = 0; j < l; ++j) {
          double s = 0;
          for (int64_t c = 0; c < d; ++c) {
            s += pq[(r * l + i) * d + c] * pk[(r * l + j) * d + c];
          }
          s *= scale;
          max_s = std::max(max_s, s);
          mean_s += s;
        }
        measure[static_cast<size_t>(i)] += max_s - mean_s / l;
      }
    }
  }
  std::vector<int64_t> order(static_cast<size_t>(l));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t c) {
    return measure[static_cast<size_t>(a)] > measure[static_cast<size_t>(c)];
  });
  std::vector<int64_t> active(order.begin(), order.begin() + u);
  std::sort(active.begin(), active.end());

  // --- Sparse attention. --------------------------------------------------
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  Tensor q_active = IndexSelect(q, 1, active);              // (R, u, d)
  Tensor attn =
      SoftmaxLastDim(MatMul(q_active, Transpose(k, 1, 2)), scale);
  Tensor context = MatMul(attn, v);                         // (R, u, d)

  // Lazy queries output mean(V); active rows are scattered back via a
  // one-hot (l, u) selector so the whole path stays differentiable.
  Tensor scatter = Tensor::Zeros({l, u});
  Tensor active_mask = Tensor::Zeros({l, 1});
  for (int64_t i = 0; i < u; ++i) {
    scatter.data()[active[static_cast<size_t>(i)] * u + i] = 1.0f;
    active_mask.data()[active[static_cast<size_t>(i)]] = 1.0f;
  }
  Tensor mean_v = BroadcastTo(Mean(v, 1, /*keepdim=*/true),
                              {b * n, l, d});
  Tensor lazy_part = Mul(mean_v, AddScalar(Neg(active_mask), 1.0f));
  Tensor attn_out = Add(MatMul(scatter, context), lazy_part);

  // Residual + FFN block, flatten head.
  Tensor h = norm1_->Forward(Add(tokens, wo_->Forward(attn_out)));
  h = norm2_->Forward(Add(h, ffn_->Forward(h)));
  Tensor forecast = head_->Forward(Reshape(h, {b * n, l * d}));
  forecast = Reshape(forecast, {b, n, config_.horizon});
  return inorm.Denormalize(forecast);
}

}  // namespace baselines
}  // namespace focus
