// Multi-head self-attention and a standard post-LN transformer encoder
// layer. Used by the PatchTST / Crossformer baselines and by the paper's
// FOCUS-Attn ablation variant (Table IV).
#ifndef FOCUS_NN_ATTENTION_H_
#define FOCUS_NN_ATTENTION_H_

#include <memory>

#include "nn/layers.h"
#include "nn/module.h"

namespace focus {
namespace nn {

// Classic O(T^2) scaled-dot-product multi-head self-attention over inputs
// of shape (B, T, dim).
class MultiheadSelfAttention : public UnaryModule {
 public:
  MultiheadSelfAttention(int64_t dim, int64_t num_heads, Rng& rng);

  Tensor Forward(const Tensor& x) override;

 private:
  // (B, T, dim) -> (B*heads, T, head_dim)
  Tensor SplitHeads(const Tensor& x) const;
  // (B*heads, T, head_dim) -> (B, T, dim)
  Tensor MergeHeads(const Tensor& x, int64_t batch) const;

  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  std::shared_ptr<Linear> wq_, wk_, wv_, wo_;
};

// Post-LN encoder block: x = LN(x + MSA(x)); x = LN(x + FFN(x)).
class TransformerEncoderLayer : public UnaryModule {
 public:
  TransformerEncoderLayer(int64_t dim, int64_t num_heads, int64_t ffn_dim,
                          Rng& rng, float dropout = 0.0f);

  Tensor Forward(const Tensor& x) override;

 private:
  std::shared_ptr<MultiheadSelfAttention> attn_;
  std::shared_ptr<FeedForward> ffn_;
  std::shared_ptr<LayerNorm> norm1_, norm2_;
  std::shared_ptr<Dropout> dropout_;  // null when dropout == 0
};

}  // namespace nn
}  // namespace focus

#endif  // FOCUS_NN_ATTENTION_H_
