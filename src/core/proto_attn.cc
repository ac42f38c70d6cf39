#include "core/proto_attn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cluster/segment_clustering.h"
#include "obs/trace.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/plan_hooks.h"
#include "tensor/precision.h"

namespace focus {
namespace core {

namespace {

// Tokens are z-normalized into the offline clustering's shape space
// before their Eq. 6 search. In int8proto inference each normalized token
// is also rounded to its symmetric int8 grid (tscale = max|t|/127, zero
// point 0) and searched against the dequantized int8 bank; a training
// forward always assigns in f32. AssignTokens and Forward's assignment
// step both make exactly this choice.
simd::RowPrep TokenPrep() {
  const bool int8 = !GradMode::IsEnabled() &&
                    PrecisionMode::Get() == Precision::kInt8Proto;
  return int8 ? simd::RowPrep::kZNormalizeInt8 : simd::RowPrep::kZNormalize;
}

}  // namespace

ProtoAttn::ProtoAttn(Tensor prototypes, std::shared_ptr<nn::Linear> embed,
                     int64_t d_model, float alpha, Rng& rng)
    : prototypes_(std::move(prototypes)),
      embed_(std::move(embed)),
      d_model_(d_model),
      alpha_(alpha) {
  FOCUS_CHECK_EQ(prototypes_.dim(), 2) << "prototypes must be (k, p)";
  FOCUS_CHECK_EQ(embed_->in_features(), prototypes_.size(1))
      << "embedding input dim must equal segment length p";
  FOCUS_CHECK_EQ(embed_->out_features(), d_model);
  // The bank is fixed for the module's lifetime, so the Eq. 6 statistics
  // of the prototypes and of their int8 quantize-dequantize are computed
  // once, here.
  const int64_t k = prototypes_.size(0), p = prototypes_.size(1);
  bank_ = std::make_shared<const cluster::PrototypeBank>(prototypes_.data(),
                                                         k, p);
  int8_bank_ = std::make_shared<const cluster::PrototypeBank>(
      QuantizePrototypeBank(prototypes_).dequantized.data(), k, p);
  we_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  wk_ = std::make_shared<nn::Linear>(d_model, d_model, rng, /*bias=*/false);
  wv_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  wo_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  RegisterModule("we", we_);
  RegisterModule("wk", wk_);
  RegisterModule("wv", wv_);
  RegisterModule("wo", wo_);
  // NOTE: `embed` is registered by the owning model, not here, to avoid
  // double-counting shared parameters.
}

std::vector<int64_t> ProtoAttn::AssignTokens(const Tensor& tokens_raw) const {
  FOCUS_CHECK_EQ(tokens_raw.dim(), 3);
  const int64_t p = prototypes_.size(1);
  FOCUS_CHECK_EQ(tokens_raw.size(2), p);
  const int64_t rows = tokens_raw.size(0) * tokens_raw.size(1);
  const int64_t k = prototypes_.size(0);
  std::vector<int64_t> assignments(static_cast<size_t>(rows));
  const simd::RowPrep prep = TokenPrep();
  cluster::NearestPrototypes(
      tokens_raw.data(), rows,
      prep == simd::RowPrep::kZNormalizeInt8 ? *int8_bank_ : *bank_, alpha_,
      prep, assignments.data(), nullptr);
  // Assignment cost (counted so the FLOPs metric reflects Algorithm 2's
  // O(l * k * p) step).
  FlopCounter::Add(3 * rows * k * p);
  return assignments;
}

Tensor ProtoAttn::Forward(const Tensor& tokens_raw, const Tensor& tokens_emb) {
  obs::TraceSpan span("focus/proto_attn");
  FOCUS_CHECK_EQ(tokens_emb.dim(), 3);
  FOCUS_CHECK_EQ(tokens_emb.size(-1), d_model_);
  const int64_t b = tokens_emb.size(0), l = tokens_emb.size(1);
  const int64_t k = prototypes_.size(0), p = prototypes_.size(1);
  FOCUS_CHECK_EQ(tokens_raw.dim(), 3);
  FOCUS_CHECK_EQ(tokens_raw.size(0), b);
  FOCUS_CHECK_EQ(tokens_raw.size(1), l);
  FOCUS_CHECK_EQ(tokens_raw.size(2), p);

  // One-hot assignment matrix A (constant wrt autograd; Algorithm 2
  // l.1-4). A's values depend on the token values, so it is one step: a
  // plan replays the assignment from the live token buffer instead of
  // pinning this call's pattern as a constant. The closure holds the
  // precision-resolved bank (the shared_ptr keeps it alive); a plan is
  // captured in inference mode and Plan::Matches() pins the ambient
  // PrecisionMode, so a plan never replays the wrong variant.
  const int64_t rows = b * l;
  const simd::RowPrep prep = TokenPrep();
  Tensor a = Tensor::Empty({b, l, k});
  plan_hooks::RunStep(
      "ProtoAssign", {tokens_raw}, a,
      [bank = prep == simd::RowPrep::kZNormalizeInt8 ? int8_bank_ : bank_,
       alpha = alpha_, prep, rows, k, p](float* const* bufs) {
        float* pa = bufs[1];
        std::fill_n(pa, rows * k, 0.0f);
        // The indices of one block of rows live on the stack, so a replay
        // allocates nothing; a row's index does not depend on its block.
        constexpr int64_t kBlock = 64;
        int64_t idx[kBlock];
        for (int64_t r0 = 0; r0 < rows; r0 += kBlock) {
          const int64_t nb = std::min(kBlock, rows - r0);
          cluster::NearestPrototypes(bufs[0] + r0 * p, nb, *bank, alpha, prep,
                                     idx, nullptr);
          for (int64_t r = 0; r < nb; ++r) pa[(r0 + r) * k + idx[r]] = 1.0f;
        }
      });
  FlopCounter::Add(3 * rows * k * p);
  // The Fig. 13 diagnostics are recorded outside inference mode only, so
  // an inference forward (eager or planned) writes nothing to the model
  // and concurrent serving forwards share it read-only.
  const bool record = !InferenceMode::IsEnabled();
  if (record) last_assignment_ = a;

  // Projections (Eq. 14-18) in the order the header derives: the queries
  // go through W_k (which has no bias: softmax drops the per-row c_q b_k)
  // and M = W_v W_o is applied once per token. q, M and c read parameters
  // only, so a plan folds them at capture. c = b_v W_o + b_o is built as
  // W_o(W_v(0)) because a plan cannot capture a Reshape of a parameter.
  Tensor c_emb = embed_->Forward(prototypes_);                 // (k, d)
  Tensor c_q = we_->Forward(c_emb);                            // (k, d)
  Tensor q = MatMul(c_q, Transpose(wk_->weight(), 0, 1));      // (k, d)
  Tensor m = MatMul(wv_->weight(), wo_->weight());             // (d, d)
  Tensor c = wo_->Forward(wv_->Forward(Tensor::Zeros({1, d_model_})));
  Tensor em = MatMul(tokens_emb, m);                           // (b, l, d)

  // Attention of prototype queries over tokens (Eq. 16): (b, k, l).
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_model_));
  Tensor scores = MatMul(q, Transpose(tokens_emb, 1, 2));
  Tensor attn = SoftmaxLastDim(scores, scale);
  if (record) last_attention_ = attn.Detach();

  // Per-prototype context, then scatter back to tokens via A (Eq. 17-18).
  Tensor context = Add(MatMul(attn, em), c);  // (b, k, d)
  return MatMul(a, context);                  // (b, l, d)
}

}  // namespace core
}  // namespace focus
