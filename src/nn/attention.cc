#include "nn/attention.h"

#include <cmath>

namespace focus {
namespace nn {

MultiheadSelfAttention::MultiheadSelfAttention(int64_t dim, int64_t num_heads,
                                               Rng& rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(dim / num_heads) {
  FOCUS_CHECK_EQ(dim % num_heads, 0) << "dim must divide into heads";
  wq_ = std::make_shared<Linear>(dim, dim, rng);
  wk_ = std::make_shared<Linear>(dim, dim, rng);
  wv_ = std::make_shared<Linear>(dim, dim, rng);
  wo_ = std::make_shared<Linear>(dim, dim, rng);
  RegisterModule("wq", wq_);
  RegisterModule("wk", wk_);
  RegisterModule("wv", wv_);
  RegisterModule("wo", wo_);
}

Tensor MultiheadSelfAttention::SplitHeads(const Tensor& x) const {
  // (B, T, dim) -> (B, T, H, hd) -> (B, H, T, hd) -> (B*H, T, hd)
  const int64_t b = x.size(0), t = x.size(1);
  Tensor h = Reshape(x, {b, t, num_heads_, head_dim_});
  h = Permute(h, {0, 2, 1, 3});
  return Reshape(h, {b * num_heads_, t, head_dim_});
}

Tensor MultiheadSelfAttention::MergeHeads(const Tensor& x,
                                          int64_t batch) const {
  const int64_t t = x.size(1);
  Tensor h = Reshape(x, {batch, num_heads_, t, head_dim_});
  h = Permute(h, {0, 2, 1, 3});
  return Reshape(h, {batch, t, dim_});
}

Tensor MultiheadSelfAttention::Forward(const Tensor& x) {
  FOCUS_CHECK_EQ(x.dim(), 3) << "attention expects (B, T, dim)";
  FOCUS_CHECK_EQ(x.size(-1), dim_);
  const int64_t b = x.size(0);

  Tensor q = SplitHeads(wq_->Forward(x));  // (B*H, T, hd)
  Tensor k = SplitHeads(wk_->Forward(x));
  Tensor v = SplitHeads(wv_->Forward(x));

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Tensor scores = MatMul(q, Transpose(k, 1, 2));
  Tensor attn = SoftmaxLastDim(scores, scale);  // (B*H, T, T)
  Tensor out = MatMul(attn, v);                // (B*H, T, hd)
  return wo_->Forward(MergeHeads(out, b));
}

TransformerEncoderLayer::TransformerEncoderLayer(int64_t dim,
                                                 int64_t num_heads,
                                                 int64_t ffn_dim, Rng& rng,
                                                 float dropout) {
  attn_ = std::make_shared<MultiheadSelfAttention>(dim, num_heads, rng);
  ffn_ = std::make_shared<FeedForward>(dim, ffn_dim, rng, dropout);
  norm1_ = std::make_shared<LayerNorm>(dim);
  norm2_ = std::make_shared<LayerNorm>(dim);
  RegisterModule("attn", attn_);
  RegisterModule("ffn", ffn_);
  RegisterModule("norm1", norm1_);
  RegisterModule("norm2", norm2_);
  if (dropout > 0.0f) {
    dropout_ = std::make_shared<Dropout>(dropout, rng);
    RegisterModule("dropout", dropout_);
  }
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x) {
  Tensor a = attn_->Forward(x);
  if (dropout_) a = dropout_->Forward(a);
  Tensor h = norm1_->Forward(Add(x, a));
  Tensor f = ffn_->Forward(h);
  if (dropout_) f = dropout_->Forward(f);
  return norm2_->Forward(Add(h, f));
}

}  // namespace nn
}  // namespace focus
