// ProtoAttn — Prototypes Attentive Modeling (paper Sec. VI, Algorithm 2).
//
// Instead of all-pairs self-attention over l tokens (O(l^2 d)), queries are
// the k offline prototypes (Eq. 14-15); each token is hard-assigned to its
// nearest prototype under the Eq. 6 composite distance, and tokens sharing
// an assignment receive identical attention rows (Eq. 19):
//
//   A      in {0,1}^(l x k)     one-hot assignments (constant wrt autograd)
//   C_Q  = (C W_emb) W_E        embedded prototype queries      (k x d)
//   K    = Z W_K                token keys (W_K has no bias)    (l x d)
//   V    = Z W_V + b_V          token values                    (l x d)
//   out  = A softmax(C_Q K^T / sqrt(d)) V W_O + b_O             (Eq. 18)
//
// Forward evaluates Eq. 18 in an order that projects each token once:
// scores = (C_Q W_K^T) Z^T and out = A (attn (Z M) + c), with M = W_V W_O
// and c = b_V W_O + b_O. The rows of attn and of A sum to 1, so this is
// the same product up to rounding. C_Q W_K^T, M and c depend on
// parameters only. Per sequence the cost is one l x d x d product plus
// O(l k d) attention, linear in the number of tokens, and a fixed
// O(k d^2 + d^3) charge for the l-free terms.
#ifndef FOCUS_CORE_PROTO_ATTN_H_
#define FOCUS_CORE_PROTO_ATTN_H_

#include <memory>
#include <vector>

#include "core/offline.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace focus {
namespace core {

class ProtoAttn : public nn::Module {
 public:
  // `prototypes` is the (k, p) shape-space prototype set from the offline
  // clustering phase; it is a fixed buffer, not a trained parameter.
  // `embed` is the shared segment-embedding Linear(p -> d), owned by the
  // enclosing model so both branches and the prototypes use one embedding.
  ProtoAttn(Tensor prototypes, std::shared_ptr<nn::Linear> embed,
            int64_t d_model, float alpha, Rng& rng);

  // tokens_raw: (B', l, p) raw (window-normalized) segments, used only for
  // the non-differentiable nearest-prototype assignment.
  // tokens_emb: (B', l, d) embedded segments (shared embedding output).
  // Returns (B', l, d).
  Tensor Forward(const Tensor& tokens_raw, const Tensor& tokens_emb);

  // Case-study introspection (paper Fig. 13): the one-hot assignment
  // matrix (B', l, k) and attention matrix (B', k, l), detached, of the
  // last forward run outside inference mode (grad mode or NoGradGuard).
  // Inference-mode forwards leave them as they were.
  const Tensor& last_assignment() const { return last_assignment_; }
  const Tensor& last_attention() const { return last_attention_; }

  // Hard assignment indices for a (B', l, p) raw-token tensor: each
  // z-normalized token's nearest prototype under Eq. 6
  // (cluster::NearestPrototypes). Under FOCUS_PRECISION=int8proto (and grad
  // mode off) the token and the bank are both rounded to int8 grids and
  // dequantized first; the search itself is the same f32 routine.
  std::vector<int64_t> AssignTokens(const Tensor& tokens_raw) const;

  int64_t num_prototypes() const { return prototypes_.size(0); }

 private:
  Tensor prototypes_;  // (k, p), constant
  // Eq. 6 statistics of the frozen bank and of its int8
  // quantize-dequantize (core/offline.h), built once at construction.
  // shared_ptr so plan-capture closures keep them alive past the module.
  std::shared_ptr<const cluster::PrototypeBank> bank_;
  std::shared_ptr<const cluster::PrototypeBank> int8_bank_;
  std::shared_ptr<nn::Linear> embed_;
  int64_t d_model_;
  float alpha_;
  std::shared_ptr<nn::Linear> we_, wk_, wv_, wo_;
  Tensor last_assignment_;
  Tensor last_attention_;
};

}  // namespace core
}  // namespace focus

#endif  // FOCUS_CORE_PROTO_ATTN_H_
