// Internal helpers shared by the op kernels. Not part of the public API.
#ifndef FOCUS_TENSOR_OPS_COMMON_H_
#define FOCUS_TENSOR_OPS_COMMON_H_

#include <array>
#include <cstddef>
#include <vector>

#include "parallel/thread_pool.h"
#include "tensor/tensor.h"

// Opens every public op entry point in ops_*.cc (enforced by
// scripts/focus_lint.py): CHECKs the operand is defined before any shape or
// data access, so a misuse fails with the op's name instead of a CHECK deep
// inside Tensor accessors.
#define FOCUS_OP_INPUT_CHECK(op_name, t) \
  FOCUS_CHECK((t).defined()) << op_name << ": undefined input tensor"

namespace focus {
namespace internal_ops {

// Row-major strides in elements.
std::vector<int64_t> Strides(const Shape& shape);

// Effective strides for reading `in` as if it had shape `out`: broadcast
// dimensions get stride 0. `in` must be right-aligned broadcast-compatible
// with `out`.
std::vector<int64_t> BroadcastReadStrides(const Shape& in, const Shape& out);

// Sums `g` (whose shape broadcasts FROM `target`) down to `target`'s shape.
// Used by backward passes of broadcasting binary ops.
Tensor ReduceGradToShape(const Tensor& g, const Shape& target);

// Normalizes a possibly-negative axis.
int64_t NormalizeDim(int64_t dim, int64_t rank);

// Strided-read row sweep shared by Permute, BroadcastTo and the
// broadcast binary ops. A row-major output of `n` elements (strides
// `out_strides`) is cut into rows of its innermost extent `m`; for each
// row the rank-long div walk runs once and gives each of the K operands
// its read offset, from that operand's per-output-dim read strides
// `read[k]`. `row_fn(row, offsets)` then sweeps the m elements. Rows are
// disjoint, so sharding them across the pool cannot change a byte. An
// empty output returns at once (its innermost extent may be 0).
template <size_t K, typename RowFn>
void SweepRows(const std::vector<int64_t>& out_strides,
               const std::array<std::vector<int64_t>, K>& read, int64_t n,
               int64_t m, const RowFn& row_fn) {
  if (n == 0) return;
  const size_t outer_rank = out_strides.empty() ? 0 : out_strides.size() - 1;
  ParallelFor(0, n / m, kStreamWork * m, [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      std::array<int64_t, K> off{};
      int64_t rem = row * m;
      for (size_t d = 0; d < outer_rank; ++d) {
        const int64_t idx = rem / out_strides[d];
        rem -= idx * out_strides[d];
        for (size_t k = 0; k < K; ++k) off[k] += idx * read[k][d];
      }
      row_fn(row, off);
    }
  });
}

}  // namespace internal_ops
}  // namespace focus

#endif  // FOCUS_TENSOR_OPS_COMMON_H_
