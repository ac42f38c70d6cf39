// Test models shared by plan_test and serve_test: a (B, N, L) -> (B, N, L)
// forecaster whose forward routes through Conv2d, which has no capture
// hook, and a variant that counts its forwards. Capturing them must fail
// closed, so every planned front end has to serve them eagerly.
#ifndef FOCUS_TESTS_CONV2D_MODEL_H_
#define FOCUS_TESTS_CONV2D_MODEL_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/forecast_model.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace focus {

class Conv2dModel : public ForecastModel {
 public:
  Conv2dModel() {
    Rng rng(12);
    w_ = RegisterParameter("w", Tensor::Randn({1, 1, 3, 3}, rng));
    b_ = RegisterParameter("b", Tensor::Zeros({1}));
  }
  Tensor Forward(const Tensor& x) override {
    Tensor h = Reshape(x, {x.size(0), 1, x.size(1), x.size(2)});
    h = Conv2d(h, w_, b_, /*stride=*/1, /*padding=*/1);
    return Reshape(h, {x.size(0), x.size(1), x.size(2)});
  }
  std::string name() const override { return "Conv2dModel"; }
  int64_t horizon() const override { return 16; }

 private:
  Tensor w_;
  Tensor b_;
};

// Conv2dModel with an entry counter, to observe exactly when a front end
// re-attempts capture (a capture attempt costs one model forward on top
// of the eager fallback's). Atomic: serving workers forward concurrently.
class CountingConv2dModel : public Conv2dModel {
 public:
  Tensor Forward(const Tensor& x) override {
    forwards.fetch_add(1, std::memory_order_relaxed);
    return Conv2dModel::Forward(x);
  }
  std::atomic<int> forwards{0};
};

}  // namespace focus

#endif  // FOCUS_TESTS_CONV2D_MODEL_H_
