#include "optim/optimizer.h"

#include <cmath>

#include "utils/check.h"

namespace focus {
namespace optim {

void AdamWUpdate(std::span<float> param, std::span<const float> grad,
                 std::span<float> m, std::span<float> v, int64_t t, float lr,
                 float weight_decay) {
  FOCUS_CHECK(grad.size() == param.size() && m.size() == param.size() &&
              v.size() == param.size())
      << "AdamW buffers differ in length";
  constexpr float beta1 = kAdamBeta1, beta2 = kAdamBeta2;
  const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
  for (size_t j = 0; j < param.size(); ++j) {
    const float g = grad[j];
    m[j] = beta1 * m[j] + (1.0f - beta1) * g;
    v[j] = beta2 * v[j] + (1.0f - beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    if (weight_decay > 0.0f) param[j] -= lr * weight_decay * param[j];
    param[j] -= lr * mhat / (std::sqrt(vhat) + kAdamEps);
  }
}

AdamW::AdamW(std::vector<Tensor> params, float lr, float weight_decay)
    : params_(std::move(params)), lr_(lr), weight_decay_(weight_decay) {
  for (const Tensor& p : params_) {
    FOCUS_CHECK(p.defined() && p.requires_grad())
        << "optimizer parameter must be a defined leaf requiring grad";
  }
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void AdamW::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void AdamW::Step() {
  ++t_;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor p = params_[i];
    Tensor g = p.Grad();
    if (!g.defined()) continue;
    const size_t n = static_cast<size_t>(p.numel());
    if (m_[i].empty()) {
      m_[i].assign(n, 0.0f);
      v_[i].assign(n, 0.0f);
    }
    AdamWUpdate({p.data(), n}, {g.data(), n}, m_[i], v_[i], t_, lr_,
                weight_decay_);
  }
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  double sq = 0.0;
  for (const Tensor& p : params) {
    Tensor g = p.Grad();
    if (!g.defined()) continue;
    const float* gd = g.data();
    for (int64_t j = 0; j < g.numel(); ++j) {
      sq += static_cast<double>(gd[j]) * gd[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (const Tensor& p : params) {
      Tensor g = p.Grad();
      if (!g.defined()) continue;
      float* gd = g.data();
      for (int64_t j = 0; j < g.numel(); ++j) gd[j] *= scale;
    }
  }
  return norm;
}

}  // namespace optim
}  // namespace focus
