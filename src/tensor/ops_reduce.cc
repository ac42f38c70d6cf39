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
  double acc = 0.0;  // double accumulator for numerical robustness
  const float* px = x.data();
  const int64_t n = x.numel();
  for (int64_t i = 0; i < n; ++i) acc += px[i];
  FlopCounter::Add(n);
  Tensor out = Tensor::Scalar(static_cast<float>(acc));
  if (plan_hooks::CaptureActive()) {
    plan_hooks::Record("SumAll", {x}, out, [n](float* const* bufs) {
      const float* rx = bufs[0];
      double racc = 0.0;
      for (int64_t i = 0; i < n; ++i) racc += rx[i];
      bufs[1][0] = static_cast<float>(racc);
    });
  }
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
  const float* px = x.data();
  float* po = out.data();
  const simd::KernelTable& kt = simd::Kernels();
  if (reduce == 0) {
    std::fill_n(po, out.numel(), 0.0f);
  } else if (inner == 1) {
    // Reducing the innermost dim: each output is the sum of a
    // contiguous row — the SIMD row_sum's fixed lane split applies.
    const int64_t grain =
        std::max<int64_t>(1, 16384 / std::max<int64_t>(1, reduce));
    ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        po[o] = kt.row_sum(px + o * reduce, reduce);
      }
    });
  } else if (outer >= inner) {
    // Shards own disjoint outer slices (disjoint output rows); the
    // reduction stays r-ascending per element (vector add over inner).
    const int64_t grain = std::max<int64_t>(
        1, 16384 / std::max<int64_t>(1, reduce * inner));
    ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        float* orow = po + o * inner;
        for (int64_t r = 0; r < reduce; ++r) {
          const float* row = px + (o * reduce + r) * inner;
          if (r == 0) {
            std::memcpy(orow, row,
                        static_cast<size_t>(inner) * sizeof(float));
          } else {
            kt.add_inplace(orow, row, inner);
          }
        }
      }
    });
  } else {
    // Shards own disjoint inner column ranges of every output row; the
    // reduction stays r-ascending per element.
    const int64_t grain =
        std::max<int64_t>(1, 16384 / std::max<int64_t>(1, outer * reduce));
    ParallelFor(0, inner, grain, [&](int64_t i0, int64_t i1) {
      for (int64_t o = 0; o < outer; ++o) {
        float* orow = po + o * inner;
        for (int64_t r = 0; r < reduce; ++r) {
          const float* row = px + (o * reduce + r) * inner;
          if (r == 0) {
            std::memcpy(orow + i0, row + i0,
                        static_cast<size_t>(i1 - i0) * sizeof(float));
          } else {
            kt.add_inplace(orow + i0, row + i0, i1 - i0);
          }
        }
      }
    });
  }
  FlopCounter::Add(x.numel());
  if (plan_hooks::CaptureActive()) {
    const auto row_sum = kt.row_sum;
    const auto add_inplace = kt.add_inplace;
    const int64_t out_numel = out.numel();
    plan_hooks::Record(
        "Sum", {x}, out,
        [row_sum, add_inplace, outer, inner, reduce,
         out_numel](float* const* bufs) {
          const float* rx = bufs[0];
          float* ro = bufs[1];
          if (reduce == 0) {
            std::fill_n(ro, out_numel, 0.0f);
          } else if (inner == 1) {
            const int64_t grain =
                std::max<int64_t>(1, 16384 / std::max<int64_t>(1, reduce));
            ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
              for (int64_t o = o0; o < o1; ++o) {
                ro[o] = row_sum(rx + o * reduce, reduce);
              }
            });
          } else if (outer >= inner) {
            const int64_t grain = std::max<int64_t>(
                1, 16384 / std::max<int64_t>(1, reduce * inner));
            ParallelFor(0, outer, grain, [&](int64_t o0, int64_t o1) {
              for (int64_t o = o0; o < o1; ++o) {
                float* orow = ro + o * inner;
                for (int64_t r = 0; r < reduce; ++r) {
                  const float* row = rx + (o * reduce + r) * inner;
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
            const int64_t grain = std::max<int64_t>(
                1, 16384 / std::max<int64_t>(1, outer * reduce));
            ParallelFor(0, inner, grain, [&](int64_t i0, int64_t i1) {
              for (int64_t o = 0; o < outer; ++o) {
                float* orow = ro + o * inner;
                for (int64_t r = 0; r < reduce; ++r) {
                  const float* row = rx + (o * reduce + r) * inner;
                  if (r == 0) {
                    std::memcpy(orow + i0, row + i0,
                                static_cast<size_t>(i1 - i0) *
                                    sizeof(float));
                  } else {
                    add_inplace(orow + i0, row + i0, i1 - i0);
                  }
                }
              }
            });
          }
        });
  }

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
  if (x.shape() == shape) {
    Tensor copy = x.Clone();
    if (plan_hooks::CaptureActive()) {
      const int64_t n = x.numel();
      plan_hooks::Record("BroadcastTo", {x}, copy, [n](float* const* bufs) {
        std::memcpy(bufs[1], bufs[0], static_cast<size_t>(n) * sizeof(float));
      });
    }
    return copy;
  }
  FOCUS_CHECK_LE(x.dim(), static_cast<int64_t>(shape.size()))
      << "BroadcastTo cannot reduce rank";
  Tensor out = Tensor::Empty(shape);
  const auto sx = internal_ops::BroadcastReadStrides(x.shape(), shape);
  const auto so = internal_ops::Strides(shape);
  const int64_t n = out.numel();
  const int64_t rank = static_cast<int64_t>(shape.size());
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, n, 4096, [&](int64_t f0, int64_t f1) {
    for (int64_t flat = f0; flat < f1; ++flat) {
      int64_t rem = flat, ox = 0;
      for (int64_t d = 0; d < rank; ++d) {
        const int64_t idx = rem / so[d];
        rem -= idx * so[d];
        ox += idx * sx[d];
      }
      po[flat] = px[ox];
    }
  });
  if (plan_hooks::CaptureActive()) {
    plan_hooks::Record(
        "BroadcastTo", {x}, out,
        [sx, so, n, rank](float* const* bufs) {
          const float* rx = bufs[0];
          float* ro = bufs[1];
          ParallelFor(0, n, 4096, [&](int64_t f0, int64_t f1) {
            for (int64_t flat = f0; flat < f1; ++flat) {
              int64_t rem = flat, ox = 0;
              for (int64_t d = 0; d < rank; ++d) {
                const int64_t idx = rem / so[d];
                rem -= idx * so[d];
                ox += idx * sx[d];
              }
              ro[flat] = rx[ox];
            }
          });
        });
  }

  Shape xs = x.shape();
  return autograd::MakeResult(
      out, "BroadcastTo", {x}, [xs](const Tensor& g) -> std::vector<Tensor> {
        return {internal_ops::ReduceGradToShape(g, xs)};
      });
}

}  // namespace focus
