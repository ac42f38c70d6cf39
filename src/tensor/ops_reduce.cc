// Reduction kernels (sum / mean, full and per-axis) and BroadcastTo.
//
// Per-axis Sum parallelizes over whichever of the outer/inner index spaces
// is larger; either way each output element is reduced by exactly one
// thread. Contiguous reductions (inner == 1) go through the SIMD layer's
// row_sum — an 8-lane strided partial-sum whose lane split is anchored
// at the row start and whose reduction tree is fixed, so the order is
// identical on every backend and thread count. Strided reductions
// accumulate r-ascending per element via the SIMD add kernels. SumAll
// stays serial on purpose: its double-precision running sum would change
// grouping under sharding.
#include <algorithm>
#include <array>
#include <cstring>

#include "parallel/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"
#include "tensor/plan_hooks.h"
#include "tensor/simd/vec.h"

namespace focus {

namespace {
using internal_ops::NormalizeDim;
}  // namespace

Tensor SumAll(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("SumAll", x);
  const int64_t n = x.numel();
  Tensor out = Tensor::Empty({1});
  plan_hooks::RunStep("SumAll", {x}, out, [n](float* const* bufs) {
    double acc = 0.0;  // double accumulator for numerical robustness
    for (int64_t i = 0; i < n; ++i) acc += bufs[0][i];
    bufs[1][0] = static_cast<float>(acc);
  });
  FlopCounter::Add(n);
  Shape xs = x.shape();
  return autograd::MakeResult(
      out, "SumAll", {x}, [xs](const Tensor& g) -> std::vector<Tensor> {
        return {Tensor::Full(xs, g.Item())};
      });
}

Tensor MeanAll(const Tensor& x) {
  FOCUS_OP_INPUT_CHECK("MeanAll", x);
  const float inv_n = 1.0f / static_cast<float>(x.numel());
  return MulScalar(SumAll(x), inv_n);
}

Tensor Sum(const Tensor& x, int64_t dim, bool keepdim) {
  FOCUS_OP_INPUT_CHECK("Sum", x);
  dim = NormalizeDim(dim, x.dim());
  const Shape& xs = x.shape();
  Shape out_shape;
  for (int64_t d = 0; d < x.dim(); ++d) {
    if (d == dim) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(xs[static_cast<size_t>(d)]);
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);

  // View as (outer, reduce, inner) for a cache-friendly loop.
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= xs[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < x.dim(); ++d) {
    inner *= xs[static_cast<size_t>(d)];
  }
  const int64_t reduce = xs[static_cast<size_t>(dim)];

  // The r == 0 pass *assigns* instead of accumulating into a pre-zeroed
  // buffer, so the (possibly recycled, garbage-filled) output needs no
  // zero fill and is written exactly once per reduction step. The
  // per-element accumulation order stays r-ascending, so outputs remain
  // bit-identical across thread counts.
  Tensor out = Tensor::Empty(out_shape);
  const auto row_sum = simd::Kernels().row_sum;
  const auto add_inplace = simd::Kernels().add_inplace;
  plan_hooks::RunStep(
      "Sum", {x}, out,
      [row_sum, add_inplace, outer, inner, reduce,
       out_numel = out.numel()](float* const* bufs) {
        const float* px = bufs[0];
        float* po = bufs[1];
        if (reduce == 0) {
          std::fill_n(po, out_numel, 0.0f);
        } else if (inner == 1) {
          // Reducing the innermost dim: each output is the sum of a
          // contiguous row — the SIMD row_sum's fixed lane split applies.
          ParallelFor(0, outer, kStreamWork * reduce,
                      [&](int64_t o0, int64_t o1) {
            for (int64_t o = o0; o < o1; ++o) {
              po[o] = row_sum(px + o * reduce, reduce);
            }
          });
        } else if (outer >= inner) {
          // Shards own disjoint outer slices (disjoint output rows); the
          // reduction stays r-ascending per element (vector add over
          // inner).
          ParallelFor(0, outer, kStreamWork * reduce * inner,
                      [&](int64_t o0, int64_t o1) {
            for (int64_t o = o0; o < o1; ++o) {
              float* orow = po + o * inner;
              for (int64_t r = 0; r < reduce; ++r) {
                const float* row = px + (o * reduce + r) * inner;
                if (r == 0) {
                  std::memcpy(orow, row,
                              static_cast<size_t>(inner) * sizeof(float));
                } else {
                  add_inplace(orow, row, inner);
                }
              }
            }
          });
        } else {
          // Shards own disjoint inner column ranges of every output row;
          // the reduction stays r-ascending per element.
          ParallelFor(0, inner, kStreamWork * outer * reduce,
                      [&](int64_t i0, int64_t i1) {
            for (int64_t o = 0; o < outer; ++o) {
              float* orow = po + o * inner;
              for (int64_t r = 0; r < reduce; ++r) {
                const float* row = px + (o * reduce + r) * inner;
                if (r == 0) {
                  std::memcpy(orow + i0, row + i0,
                              static_cast<size_t>(i1 - i0) * sizeof(float));
                } else {
                  add_inplace(orow + i0, row + i0, i1 - i0);
                }
              }
            }
          });
        }
      });
  FlopCounter::Add(x.numel());

  Shape x_shape = xs;
  Shape keep_shape = xs;
  keep_shape[static_cast<size_t>(dim)] = 1;
  return autograd::MakeResult(
      out, "Sum", {x},
      [x_shape, keep_shape](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        return {BroadcastTo(Reshape(g, keep_shape), x_shape)};
      });
}

Tensor Mean(const Tensor& x, int64_t dim, bool keepdim) {
  FOCUS_OP_INPUT_CHECK("Mean", x);
  const int64_t d = NormalizeDim(dim, x.dim());
  const float inv = 1.0f / static_cast<float>(x.size(d));
  return MulScalar(Sum(x, d, keepdim), inv);
}

Tensor BroadcastTo(const Tensor& x, const Shape& shape) {
  FOCUS_OP_INPUT_CHECK("BroadcastTo", x);
  FOCUS_CHECK_LE(x.dim(), static_cast<int64_t>(shape.size()))
      << "BroadcastTo cannot reduce rank";
  // Row sweep (SweepRows): the innermost read stride is 0 (that dim
  // broadcasts: fill the row with one value) or 1 (a contiguous run).
  Tensor out = Tensor::Empty(shape);
  std::array<std::vector<int64_t>, 1> read = {
      internal_ops::BroadcastReadStrides(x.shape(), shape)};
  const int64_t m = shape.empty() ? 1 : shape.back();
  const int64_t step = shape.empty() ? 1 : read[0].back();
  plan_hooks::RunStep(
      "BroadcastTo", {x}, out,
      [so = internal_ops::Strides(shape), read = std::move(read),
       n = out.numel(), m, step](float* const* bufs) {
        internal_ops::SweepRows(
            so, read, n, m,
            [&](int64_t row, const std::array<int64_t, 1>& off) {
              float* o = bufs[1] + row * m;
              const float* src = bufs[0] + off[0];
              if (step == 0) {
                std::fill_n(o, m, *src);
              } else {
                std::memcpy(o, src, static_cast<size_t>(m) * sizeof(float));
              }
            });
      });
  Shape xs = x.shape();
  return autograd::MakeResult(
      out, "BroadcastTo", {x}, [xs](const Tensor& g) -> std::vector<Tensor> {
        return {internal_ops::ReduceGradToShape(g, xs)};
      });
}

}  // namespace focus
