// AdamW (decoupled weight decay, Loshchilov & Hutter) and gradient
// clipping.
//
// AdamW is the one optimizer the paper uses, both for prototype refinement
// in the offline clustering phase (Sec. V, Eq. 10) and for model training.
// The per-buffer update is a free function over raw float spans so that
// the clustering refinement, which computes its gradients analytically
// rather than on the autograd tape, runs the same arithmetic as training.
// Updates mutate parameter data in place and never build autograd graphs.
#ifndef FOCUS_OPTIM_OPTIMIZER_H_
#define FOCUS_OPTIM_OPTIMIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace focus {
namespace optim {

// Adam's moment decay rates and denominator guard, at their usual values;
// the paper tunes only the learning rate and the weight decay.
inline constexpr float kAdamBeta1 = 0.9f;
inline constexpr float kAdamBeta2 = 0.999f;
inline constexpr float kAdamEps = 1e-8f;

// One AdamW update of `param` in place at step `t` (1-based), with the
// moment buffers `m` and `v` (same length, zero before step 1). Per
// element, in this order: m and v take the gradient, the decoupled decay
// scales the parameter by (1 - lr * weight_decay), then the bias-corrected
// step lr * m_hat / (sqrt(v_hat) + eps) is subtracted.
void AdamWUpdate(std::span<float> param, std::span<const float> grad,
                 std::span<float> m, std::span<float> v, int64_t t, float lr,
                 float weight_decay);

class AdamW {
 public:
  AdamW(std::vector<Tensor> params, float lr, float weight_decay = 1e-2f);

  // Applies one update using the gradients currently stored on the params.
  // Parameters with no gradient are skipped.
  void Step();

  void ZeroGrad();

  const std::vector<Tensor>& params() const { return params_; }

 private:
  std::vector<Tensor> params_;
  float lr_;
  float weight_decay_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

// Scales all gradients so their global L2 norm is at most `max_norm`.
// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

}  // namespace optim
}  // namespace focus

#endif  // FOCUS_OPTIM_OPTIMIZER_H_
