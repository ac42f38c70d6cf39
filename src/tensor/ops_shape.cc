// Shape manipulation ops: reshape (aliasing), transpose/permute, slice,
// concatenation, index-select; plus Tensor member conveniences.
#include <array>
#include <cstring>
#include <numeric>

#include "parallel/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"
#include "tensor/plan_hooks.h"

namespace focus {

namespace {
using internal_ops::NormalizeDim;
using internal_ops::Strides;
}  // namespace

Tensor Reshape(const Tensor& x, Shape shape) {
  FOCUS_OP_INPUT_CHECK("Reshape", x);
  // Allow one inferred dimension (-1).
  int64_t infer = -1;
  int64_t known = 1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      FOCUS_CHECK_EQ(infer, -1) << "at most one -1 in Reshape";
      infer = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    FOCUS_CHECK(known > 0 && x.numel() % known == 0)
        << "cannot infer dim for reshape of " << ShapeToString(x.shape())
        << " to " << ShapeToString(shape);
    shape[static_cast<size_t>(infer)] = x.numel() / known;
  }
  FOCUS_CHECK_EQ(ShapeNumel(shape), x.numel())
      << "Reshape " << ShapeToString(x.shape()) << " -> "
      << ShapeToString(shape);

  auto impl = std::make_shared<TensorImpl>(shape, x.impl()->buffer());
  Tensor out = Tensor::FromImpl(std::move(impl));
  Shape xs = x.shape();
  return autograd::MakeResult(
      out, "Reshape", {x}, [xs](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        return {Reshape(g, xs)};
      });
}

Tensor Permute(const Tensor& x, const std::vector<int64_t>& dims) {
  FOCUS_OP_INPUT_CHECK("Permute", x);
  const int64_t rank = x.dim();
  FOCUS_CHECK_EQ(static_cast<int64_t>(dims.size()), rank);
  std::vector<bool> seen(static_cast<size_t>(rank), false);
  std::vector<int64_t> perm(static_cast<size_t>(rank));
  Shape out_shape(static_cast<size_t>(rank));
  for (int64_t d = 0; d < rank; ++d) {
    const int64_t src = NormalizeDim(dims[static_cast<size_t>(d)], rank);
    FOCUS_CHECK(!seen[static_cast<size_t>(src)]) << "duplicate dim in Permute";
    seen[static_cast<size_t>(src)] = true;
    perm[static_cast<size_t>(d)] = src;
    out_shape[static_cast<size_t>(d)] = x.size(src);
  }

  // Pure data movement. Output element (i_0, ..., i_{r-1}) reads the
  // source at sum_d i_d * in_strides[perm[d]], so every output row of
  // `m` floats reads at a fixed stride `step` (the input stride of the
  // axis that lands last): a memcpy when the permutation keeps the last
  // axis, a strided gather otherwise.
  Tensor out = Tensor::Empty(out_shape);
  const auto in_strides = Strides(x.shape());
  std::vector<int64_t> read(static_cast<size_t>(rank));
  for (int64_t d = 0; d < rank; ++d) {
    read[static_cast<size_t>(d)] =
        in_strides[static_cast<size_t>(perm[static_cast<size_t>(d)])];
  }
  const int64_t m = rank > 0 ? out_shape.back() : 1;
  const int64_t step = rank > 0 ? read.back() : 1;
  plan_hooks::RunStep(
      "Permute", {x}, out,
      [so = Strides(out_shape), read = std::array{std::move(read)},
       n = x.numel(), m, step](float* const* bufs) {
        const float* rx = bufs[0];
        float* ro = bufs[1];
        internal_ops::SweepRows(
            so, read, n, m,
            [&](int64_t row, const std::array<int64_t, 1>& off) {
              float* o = ro + row * m;
              const float* src = rx + off[0];
              if (step == 1) {
                std::memcpy(o, src, static_cast<size_t>(m) * sizeof(float));
              } else {
                for (int64_t j = 0; j < m; ++j) o[j] = src[j * step];
              }
            });
      });

  // Inverse permutation for backward.
  std::vector<int64_t> inverse(static_cast<size_t>(rank));
  for (int64_t d = 0; d < rank; ++d) {
    inverse[static_cast<size_t>(perm[static_cast<size_t>(d)])] = d;
  }
  return autograd::MakeResult(
      out, "Permute", {x}, [inverse](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        return {Permute(g, inverse)};
      });
}

Tensor Transpose(const Tensor& x, int64_t d0, int64_t d1) {
  FOCUS_OP_INPUT_CHECK("Transpose", x);
  const int64_t rank = x.dim();
  d0 = NormalizeDim(d0, rank);
  d1 = NormalizeDim(d1, rank);
  std::vector<int64_t> dims(static_cast<size_t>(rank));
  std::iota(dims.begin(), dims.end(), 0);
  std::swap(dims[static_cast<size_t>(d0)], dims[static_cast<size_t>(d1)]);
  return Permute(x, dims);
}

Tensor Slice(const Tensor& x, int64_t dim, int64_t start, int64_t end) {
  FOCUS_OP_INPUT_CHECK("Slice", x);
  dim = NormalizeDim(dim, x.dim());
  const int64_t size = x.size(dim);
  if (start < 0) start += size;
  if (end < 0) end += size;
  FOCUS_CHECK(0 <= start && start < end && end <= size)
      << "Slice [" << start << ", " << end << ") out of range for dim " << dim
      << " of " << ShapeToString(x.shape());

  Shape out_shape = x.shape();
  out_shape[static_cast<size_t>(dim)] = end - start;

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= x.size(d);
  for (int64_t d = dim + 1; d < x.dim(); ++d) inner *= x.size(d);
  const int64_t len = end - start;

  Tensor out = Tensor::Empty(out_shape);
  plan_hooks::RunStep(
      "Slice", {x}, out, [outer, size, start, inner, len](float* const* bufs) {
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(bufs[1] + o * len * inner,
                      bufs[0] + (o * size + start) * inner,
                      static_cast<size_t>(len * inner) * sizeof(float));
        }
      });

  Shape xs = x.shape();
  return autograd::MakeResult(
      out, "Slice", {x},
      [xs, dim, start, size, outer, inner,
       len](const Tensor& g) -> std::vector<Tensor> {
        Tensor gin = Tensor::Zeros(xs);
        const float* pg = g.data();
        float* pi = gin.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(pi + (o * size + start) * inner, pg + o * len * inner,
                      static_cast<size_t>(len * inner) * sizeof(float));
        }
        return {gin};
      });
}

Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim) {
  FOCUS_CHECK(!tensors.empty()) << "Cat of zero tensors";
  for (const Tensor& t : tensors) FOCUS_OP_INPUT_CHECK("Cat", t);
  const int64_t rank = tensors[0].dim();
  dim = NormalizeDim(dim, rank);
  Shape out_shape = tensors[0].shape();
  int64_t total = 0;
  for (const Tensor& t : tensors) {
    FOCUS_CHECK_EQ(t.dim(), rank) << "Cat rank mismatch";
    for (int64_t d = 0; d < rank; ++d) {
      if (d != dim) {
        FOCUS_CHECK_EQ(t.size(d), out_shape[static_cast<size_t>(d)])
            << "Cat shape mismatch at dim " << d;
      }
    }
    total += t.size(dim);
  }
  out_shape[static_cast<size_t>(dim)] = total;

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= out_shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= out_shape[static_cast<size_t>(d)];
  }

  std::vector<int64_t> sizes;
  for (const Tensor& t : tensors) sizes.push_back(t.size(dim));
  Tensor out = Tensor::Empty(out_shape);
  plan_hooks::RunStep(
      "Cat", tensors, out, [sizes, outer, total, inner](float* const* bufs) {
        float* ro = bufs[sizes.size()];
        int64_t off = 0;
        for (size_t t = 0; t < sizes.size(); ++t) {
          const int64_t len = sizes[t];
          for (int64_t o = 0; o < outer; ++o) {
            std::memcpy(ro + (o * total + off) * inner,
                        bufs[t] + o * len * inner,
                        static_cast<size_t>(len * inner) * sizeof(float));
          }
          off += len;
        }
      });

  return autograd::MakeResult(
      out, "Cat", {tensors.begin(), tensors.end()},
      [sizes, dim](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        std::vector<Tensor> grads;
        int64_t start = 0;
        for (int64_t len : sizes) {
          grads.push_back(Slice(g, dim, start, start + len));
          start += len;
        }
        return grads;
      });
}

Tensor IndexSelect(const Tensor& x, int64_t dim,
                   const std::vector<int64_t>& indices) {
  FOCUS_OP_INPUT_CHECK("IndexSelect", x);
  dim = NormalizeDim(dim, x.dim());
  const int64_t size = x.size(dim);
  for (int64_t idx : indices) {
    FOCUS_CHECK(idx >= 0 && idx < size)
        << "IndexSelect index " << idx << " out of range [0, " << size << ")";
  }
  Shape out_shape = x.shape();
  out_shape[static_cast<size_t>(dim)] = static_cast<int64_t>(indices.size());

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= x.size(d);
  for (int64_t d = dim + 1; d < x.dim(); ++d) inner *= x.size(d);
  const int64_t len = static_cast<int64_t>(indices.size());

  Tensor out = Tensor::Empty(out_shape);
  plan_hooks::RunStep(
      "IndexSelect", {x}, out,
      [indices, size, outer, inner, len](float* const* bufs) {
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t i = 0; i < len; ++i) {
            std::memcpy(
                bufs[1] + (o * len + i) * inner,
                bufs[0] + (o * size + indices[static_cast<size_t>(i)]) * inner,
                static_cast<size_t>(inner) * sizeof(float));
          }
        }
      });

  Shape xs = x.shape();
  return autograd::MakeResult(
      out, "IndexSelect", {x},
      [xs, indices, size, outer, inner,
       len](const Tensor& g) -> std::vector<Tensor> {
        Tensor gin = Tensor::Zeros(xs);
        const float* pg = g.data();
        float* pi = gin.data();
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t i = 0; i < len; ++i) {
            float* dst =
                pi + (o * size + indices[static_cast<size_t>(i)]) * inner;
            const float* src = pg + (o * len + i) * inner;
            for (int64_t j = 0; j < inner; ++j) dst[j] += src[j];
          }
        }
        return {gin};
      });
}

// --- Tensor member conveniences ---------------------------------------------

Tensor Tensor::Reshape(Shape shape) const {
  return ::focus::Reshape(*this, std::move(shape));
}

Tensor Tensor::Transpose(int64_t d0, int64_t d1) const {
  return ::focus::Transpose(*this, d0, d1);
}

Tensor Tensor::Permute(const std::vector<int64_t>& dims) const {
  return ::focus::Permute(*this, dims);
}

Tensor Tensor::Unsqueeze(int64_t dim) const {
  const int64_t rank = dim >= 0 ? dim : this->dim() + dim + 1;
  FOCUS_CHECK(rank >= 0 && rank <= this->dim());
  Shape s = shape();
  s.insert(s.begin() + rank, 1);
  return ::focus::Reshape(*this, s);
}

Tensor Tensor::Squeeze(int64_t dim) const {
  const int64_t d = internal_ops::NormalizeDim(dim, this->dim());
  FOCUS_CHECK_EQ(size(d), 1) << "Squeeze on non-unit dim";
  Shape s = shape();
  s.erase(s.begin() + d);
  return ::focus::Reshape(*this, s);
}

}  // namespace focus
