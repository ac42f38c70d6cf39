// Elementwise binary / scalar / unary kernels and the loss compositions.
//
// All kernels are embarrassingly parallel over the flat output index (the
// broadcast path: over output rows) and run through ParallelFor in
// contiguous chunks, so results are bit-identical for any
// FOCUS_NUM_THREADS. Each op's kernel is one closure that runs eagerly
// and is recorded for plan replay (plan_hooks::RunStep). FLOP counts are
// added once, outside the parallel regions.
#include <array>
#include <cmath>

#include "parallel/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/debug_guard.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"
#include "tensor/plan_hooks.h"
#include "tensor/simd/vec.h"

namespace focus {

namespace {

using internal_ops::BroadcastReadStrides;
using internal_ops::ReduceGradToShape;

// SIMD kernel-table entry types (see src/tensor/simd/vec.h).
using BinK = void (*)(const float*, const float*, float*, int64_t);
using UnK = void (*)(const float*, float*, int64_t);
// Backward kernels are referenced as table members so the backend is
// re-resolved when the backward pass actually runs.
using BwdKMember = BinK simd::KernelTable::*;

// Applies `f` elementwise with NumPy broadcasting. The equal-shape fast
// path — the overwhelmingly common case — runs through the SIMD kernel
// `kern`; lane grouping carries no cross-element data flow, so chunk
// boundaries cannot change results. The broadcast path sweeps output
// rows (SweepRows: one div walk per row, the innermost dimension as a
// contiguous run). Innermost read strides are 0 (that dim broadcasts) or
// 1 (natural stride of a trailing dim), and at least one operand has
// stride 1 (shapes that differ broadcast to rank >= 1, and an innermost
// extent above 1 comes from an operand), so a row is vec-vec (`kern`),
// vec-scalar or scalar-vec (scalar `f`). Every element is still one
// application of the same correctly-rounded op (the SIMD `kern` lanes
// compute the identical IEEE add/sub/mul/div as scalar `f`), so no row
// shape changes a single output bit.
template <typename F>
Tensor BinaryKernel(const Tensor& a, const Tensor& b, const char* name,
                    BinK kern, F f) {
  if (a.shape() == b.shape()) {
    Tensor out = Tensor::Empty(a.shape());
    const int64_t n = a.numel();
    plan_hooks::RunStep(name, {a, b}, out, [kern, n](float* const* bufs) {
      ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
        kern(bufs[0] + i0, bufs[1] + i0, bufs[2] + i0, i1 - i0);
      });
    });
    FlopCounter::Add(n);
    return out;
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Empty(out_shape);
  std::array<std::vector<int64_t>, 2> read = {
      BroadcastReadStrides(a.shape(), out_shape),
      BroadcastReadStrides(b.shape(), out_shape)};
  const int64_t n = out.numel();
  const int64_t m = out_shape.back();
  const int64_t ta = read[0].back();
  const int64_t tb = read[1].back();
  plan_hooks::RunStep(
      name, {a, b}, out,
      [so = internal_ops::Strides(out_shape), read = std::move(read), n, m,
       ta, tb, kern, f](float* const* bufs) {
        internal_ops::SweepRows(
            so, read, n, m,
            [&](int64_t row, const std::array<int64_t, 2>& off) {
              const float* pa = bufs[0] + off[0];
              const float* pb = bufs[1] + off[1];
              float* o = bufs[2] + row * m;
              if (ta == 1 && tb == 1) {
                kern(pa, pb, o, m);
              } else if (ta == 1) {
                const float s = *pb;
                for (int64_t j = 0; j < m; ++j) o[j] = f(pa[j], s);
              } else {
                const float s = *pa;
                for (int64_t j = 0; j < m; ++j) o[j] = f(s, pb[j]);
              }
            });
      });
  FlopCounter::Add(n);
  return out;
}

// Unary op scaffold: forward applies `f`; backward multiplies the incoming
// gradient by df(x, y) where y = f(x). Templated on the functors so the
// per-element call inlines.
template <typename F, typename DF>
Tensor UnaryOp(const Tensor& x, const char* name, F f, DF df) {
  Tensor out = Tensor::Empty(x.shape());
  const int64_t n = x.numel();
  plan_hooks::RunStep(name, {x}, out, [f, n](float* const* bufs) {
    const float* rx = bufs[0];
    float* ro = bufs[1];
    ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) ro[i] = f(rx[i]);
    });
  });
  FlopCounter::Add(2 * n);

  Tensor x_saved = x.Detach();
  Tensor y_saved = out.Detach();
  return autograd::MakeResult(
      out, name, {x},
      [x_saved, y_saved, df](const Tensor& g) -> std::vector<Tensor> {
        Tensor gin = Tensor::Empty(x_saved.shape());
        const float* pg = g.data();
        const float* px = x_saved.data();
        const float* py = y_saved.data();
        float* pi = gin.data();
        const int64_t n = gin.numel();
        ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            pi[i] = pg[i] * df(px[i], py[i]);
          }
        });
        FlopCounter::Add(2 * n);
        return {gin};
      });
}

// SIMD-routed unary op: forward through a resolved table kernel,
// backward through a table *member* (re-resolved at backward time).
// The backward kernel receives the saved tensor — the input x or the
// output y, whichever `save_input` picks — plus the incoming gradient.
Tensor RoutedUnary(const Tensor& x, const char* name, UnK fwd,
                   BwdKMember bwd, bool save_input) {
  Tensor out = Tensor::Empty(x.shape());
  const int64_t n = x.numel();
  plan_hooks::RunStep(name, {x}, out, [fwd, n](float* const* bufs) {
    ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
      fwd(bufs[0] + i0, bufs[1] + i0, i1 - i0);
    });
  });
  FlopCounter::Add(2 * n);

  Tensor saved = save_input ? x.Detach() : out.Detach();
  return autograd::MakeResult(
      out, name, {x},
      [saved, bwd](const Tensor& g) -> std::vector<Tensor> {
        Tensor gin = Tensor::Empty(saved.shape());
        const float* ps = saved.data();
        const float* pg = g.data();
        float* pi = gin.data();
        const int64_t n = gin.numel();
        const BinK k = simd::Kernels().*bwd;
        ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
          k(ps + i0, pg + i0, pi + i0, i1 - i0);
        });
        FlopCounter::Add(2 * n);
        return {gin};
      });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  FOCUS_OP_INPUT_CHECK("Add", a);
  FOCUS_OP_INPUT_CHECK("Add", b);
  Tensor out = BinaryKernel(a, b, "Add", simd::Kernels().add,
                            [](float x, float y) { return x + y; });
  Shape sa = a.shape(), sb = b.shape();
  return autograd::MakeResult(
      out, "Add", {a, b}, [sa, sb](const Tensor& g) -> std::vector<Tensor> {
        return {ReduceGradToShape(g, sa), ReduceGradToShape(g, sb)};
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  FOCUS_OP_INPUT_CHECK("Sub", a);
  FOCUS_OP_INPUT_CHECK("Sub", b);
  Tensor out = BinaryKernel(a, b, "Sub", simd::Kernels().sub,
                            [](float x, float y) { return x - y; });
  Shape sa = a.shape(), sb = b.shape();
  return autograd::MakeResult(
      out, "Sub", {a, b}, [sa, sb](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        return {ReduceGradToShape(g, sa), ReduceGradToShape(Neg(g), sb)};
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  FOCUS_OP_INPUT_CHECK("Mul", a);
  FOCUS_OP_INPUT_CHECK("Mul", b);
  Tensor out = BinaryKernel(a, b, "Mul", simd::Kernels().mul,
                            [](float x, float y) { return x * y; });
  Tensor ad = a.Detach(), bd = b.Detach();
  return autograd::MakeResult(
      out, "Mul", {a, b}, [ad, bd](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        return {ReduceGradToShape(Mul(g, bd), ad.shape()),
                ReduceGradToShape(Mul(g, ad), bd.shape())};
      });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  FOCUS_OP_INPUT_CHECK("Div", a);
  FOCUS_OP_INPUT_CHECK("Div", b);
  Tensor out = BinaryKernel(a, b, "Div", simd::Kernels().div,
                            [](float x, float y) { return x / y; });
  Tensor ad = a.Detach(), bd = b.Detach();
  return autograd::MakeResult(
      out, "Div", {a, b}, [ad, bd](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        Tensor ga = ReduceGradToShape(Div(g, bd), ad.shape());
        Tensor gb = ReduceGradToShape(
            Neg(Div(Mul(g, ad), Mul(bd, bd))), bd.shape());
        return {ga, gb};
      });
}

Tensor AddScalar(const Tensor& x, float s) {
  FOCUS_OP_INPUT_CHECK("AddScalar", x);
  Tensor out = Tensor::Empty(x.shape());
  const auto kern = simd::Kernels().add_scalar;
  const int64_t n = x.numel();
  plan_hooks::RunStep("AddScalar", {x}, out, [kern, s, n](float* const* bufs) {
    ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
      kern(bufs[0] + i0, s, bufs[1] + i0, i1 - i0);
    });
  });
  FlopCounter::Add(n);
  return autograd::MakeResult(
      out, "AddScalar", {x},
      [](const Tensor& g) -> std::vector<Tensor> { return {g.Clone()}; });
}

Tensor MulScalar(const Tensor& x, float s) {
  FOCUS_OP_INPUT_CHECK("MulScalar", x);
  Tensor out = Tensor::Empty(x.shape());
  const auto kern = simd::Kernels().mul_scalar;
  const int64_t n = x.numel();
  plan_hooks::RunStep("MulScalar", {x}, out, [kern, s, n](float* const* bufs) {
    ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
      kern(bufs[0] + i0, s, bufs[1] + i0, i1 - i0);
    });
  });
  FlopCounter::Add(n);
  return autograd::MakeResult(
      out, "MulScalar", {x}, [s](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        return {MulScalar(g, s)};
      });
}

Tensor PowScalar(const Tensor& x, float p) {
  FOCUS_OP_INPUT_CHECK("PowScalar", x);
  return UnaryOp(
      x, "PowScalar", [p](float v) { return std::pow(v, p); },
      [p](float v, float) { return p * std::pow(v, p - 1.0f); });
}

Tensor Neg(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Neg", x);
  return UnaryOp(
      x, "Neg", [](float v) { return -v; },
      [](float, float) { return -1.0f; });
}

Tensor Exp(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Exp", x);
  // d/dx exp = exp(x) = y, so the backward is just y * g: the plain
  // elementwise-multiply table kernel.
  return RoutedUnary(x, "Exp", simd::Kernels().exp_fwd,
                     &simd::KernelTable::mul, /*save_input=*/false);
}

Tensor Log(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Log", x);
  return UnaryOp(
      x, "Log", [](float v) { return std::log(v); },
      [](float v, float) { return 1.0f / v; });
}

Tensor Sqrt(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Sqrt", x);
  return RoutedUnary(x, "Sqrt", simd::Kernels().sqrt_fwd,
                     &simd::KernelTable::sqrt_bwd, /*save_input=*/false);
}

Tensor Erf(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Erf", x);
  return RoutedUnary(x, "Erf", simd::Kernels().erf_fwd,
                     &simd::KernelTable::erf_bwd, /*save_input=*/true);
}

Tensor Abs(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Abs", x);
  return UnaryOp(
      x, "Abs", [](float v) { return std::fabs(v); },
      [](float v, float) { return v > 0 ? 1.0f : (v < 0 ? -1.0f : 0.0f); });
}

Tensor Relu(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Relu", x);
  return RoutedUnary(x, "Relu", simd::Kernels().relu_fwd,
                     &simd::KernelTable::relu_bwd, /*save_input=*/true);
}

Tensor Gelu(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Gelu", x);
  // tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3))),
  // c = sqrt(2/pi); the polynomial tanh lives in the SIMD layer.
  return RoutedUnary(x, "Gelu", simd::Kernels().gelu_fwd,
                     &simd::KernelTable::gelu_bwd, /*save_input=*/true);
}

Tensor Sigmoid(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Sigmoid", x);
  return RoutedUnary(x, "Sigmoid", simd::Kernels().sigmoid_fwd,
                     &simd::KernelTable::sigmoid_bwd,
                     /*save_input=*/false);
}

Tensor Tanh(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("Tanh", x);
  return RoutedUnary(x, "Tanh", simd::Kernels().tanh_fwd,
                     &simd::KernelTable::tanh_bwd, /*save_input=*/false);
}

Tensor MseLoss(const Tensor& pred, const Tensor& target) {
  FOCUS_OP_INPUT_CHECK("MseLoss", pred);
  FOCUS_OP_INPUT_CHECK("MseLoss", target);
  FOCUS_CHECK(pred.shape() == target.shape())
      << "MseLoss shape mismatch: " << ShapeToString(pred.shape()) << " vs "
      << ShapeToString(target.shape());
  Tensor diff = Sub(pred, target);
  return MeanAll(Mul(diff, diff));
}

Tensor L1Loss(const Tensor& pred, const Tensor& target) {
  FOCUS_OP_INPUT_CHECK("L1Loss", pred);
  FOCUS_OP_INPUT_CHECK("L1Loss", target);
  FOCUS_CHECK(pred.shape() == target.shape())
      << "L1Loss shape mismatch";
  return MeanAll(Abs(Sub(pred, target)));
}

void AddInPlace(Tensor& a, const Tensor& b) {
  FOCUS_OP_INPUT_CHECK("AddInPlace", a);
  FOCUS_OP_INPUT_CHECK("AddInPlace", b);
  FOCUS_CHECK(a.shape() == b.shape())
      << "AddInPlace shape mismatch: " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
  debug::CheckInPlaceNoAlias(a, b, "AddInPlace");
  // In-place mutation breaks the plan IR's single-assignment model.
  if (plan_hooks::CaptureActive()) plan_hooks::NotifyUnsupported("AddInPlace");
  float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  const auto kern = simd::Kernels().add_inplace;
  ParallelFor(0, n, kStreamWork, [&](int64_t i0, int64_t i1) {
    kern(pa + i0, pb + i0, i1 - i0);
  });
  FlopCounter::Add(n);
  debug::CheckFiniteOutput(a, "AddInPlace");
}

}  // namespace focus
