// Test model shared by plan_test and serve_test: a (B, N, L) -> (B, N, L)
// forecaster whose forward routes through Conv2d, which has no capture
// hook. Capturing it must fail closed, so every planned front end has to
// serve it eagerly.
#ifndef FOCUS_TESTS_CONV2D_MODEL_H_
#define FOCUS_TESTS_CONV2D_MODEL_H_

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

}  // namespace focus

#endif  // FOCUS_TESTS_CONV2D_MODEL_H_
