// Matrix multiplication with batch broadcasting, plus its backward pass.
//
// The forward kernel is cache-blocked (MC-row tasks) and routed through
// the SIMD layer's matmul_row_block kernel (src/tensor/simd): a 4×16 C
// tile (8-wide and masked panels for the last columns) lives in FMA
// registers for the whole k loop, so C is written exactly once per
// element. Work is split over the batch×row-block grid
// via ParallelFor. For every output element the reduction over k runs
// as one ascending FMA chain regardless of tiling, thread count, or
// backend, so results are bit-identical for any FOCUS_NUM_THREADS and
// FOCUS_SIMD setting.
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

// MC rows of A per task keeps the A panel L2-resident and sizes the
// parallel grid; the 4×16 register micro-tile lives in
// simd::KernelTable::matmul_row_block.
constexpr int64_t kBlockM = 64;  // MC: A/C rows per parallel task

// C(batch,m,n) = A(batch_a,m,k) @ B(batch_b,k,n), batch_a/batch_b in
// {1, batch}. Parallel over the batch×row-block grid; each task owns a
// disjoint slab of C, so no two threads ever touch the same output element.
void MatMulKernel(const float* a, const float* b, float* c, int64_t batch,
                  int64_t batch_a, int64_t batch_b, int64_t m, int64_t k,
                  int64_t n) {
  const int64_t row_blocks = (m + kBlockM - 1) / kBlockM;
  const auto row_block = simd::Kernels().matmul_row_block;
  ParallelFor(0, batch * row_blocks, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t task = t0; task < t1; ++task) {
      const int64_t t = task / row_blocks;
      const int64_t block = task % row_blocks;
      const float* at = a + (batch_a == 1 ? 0 : t) * m * k;
      const float* bt = b + (batch_b == 1 ? 0 : t) * k * n;
      float* ct = c + t * m * n;
      const int64_t i0 = block * kBlockM;
      const int64_t i1 = std::min(m, i0 + kBlockM);
      row_block(at, bt, ct, i0, i1, k, n);
    }
  });
}

// Transposes the last two dims of a 2D/3D tensor (materialized, no graph).
Tensor TransposeLast2(const Tensor& x) {
  NoGradGuard no_grad;
  return Transpose(x, x.dim() - 2, x.dim() - 1);
}

struct MatMulDims {
  int64_t batch, batch_a, batch_b, m, k, n;
};

MatMulDims ResolveDims(const Tensor& a, const Tensor& b) {
  FOCUS_CHECK(a.dim() == 2 || a.dim() == 3)
      << "MatMul lhs rank must be 2 or 3, got " << ShapeToString(a.shape());
  FOCUS_CHECK(b.dim() == 2 || b.dim() == 3)
      << "MatMul rhs rank must be 2 or 3, got " << ShapeToString(b.shape());
  MatMulDims d;
  d.batch_a = a.dim() == 3 ? a.size(0) : 1;
  d.batch_b = b.dim() == 3 ? b.size(0) : 1;
  d.m = a.size(-2);
  d.k = a.size(-1);
  FOCUS_CHECK_EQ(d.k, b.size(-2))
      << "MatMul inner-dim mismatch: " << ShapeToString(a.shape()) << " @ "
      << ShapeToString(b.shape());
  d.n = b.size(-1);
  FOCUS_CHECK(d.batch_a == d.batch_b || d.batch_a == 1 || d.batch_b == 1)
      << "MatMul batch mismatch: " << d.batch_a << " vs " << d.batch_b;
  d.batch = std::max(d.batch_a, d.batch_b);
  return d;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FOCUS_OP_INPUT_CHECK("MatMul", a);
  FOCUS_OP_INPUT_CHECK("MatMul", b);
  const MatMulDims d = ResolveDims(a, b);
  const bool batched_out = (a.dim() == 3 || b.dim() == 3);
  Shape out_shape = batched_out ? Shape{d.batch, d.m, d.n} : Shape{d.m, d.n};
  Tensor out = Tensor::Empty(out_shape);
  // MatMulKernel resolves the row-block kernel from the active table on
  // every run, eager or replayed, so a replay uses the backend active at
  // replay time; scalar and AVX2 give the same bits either way
  // (ParityTest.PlanReplayAcrossBackendSwitchBitIdentical).
  plan_hooks::RunStep("MatMul", {a, b}, out, [d](float* const* bufs) {
    MatMulKernel(bufs[0], bufs[1], bufs[2], d.batch, d.batch_a, d.batch_b,
                 d.m, d.k, d.n);
  });
  // Counted once from the resolved dims, on the launching thread, outside
  // the parallel region: the executed work is 2·batch·m·n·k regardless of
  // which operand (if either) broadcasts its batch dimension.
  FlopCounter::Add(2 * d.batch * d.m * d.n * d.k);

  Tensor ad = a.Detach(), bd = b.Detach();
  return autograd::MakeResult(
      out, "MatMul", {a, b}, [ad, bd](const Tensor& g) -> std::vector<Tensor> {
        NoGradGuard no_grad;
        // dA = g @ B^T, dB = A^T @ g; batch-broadcast inputs get their
        // batch dimension summed back out.
        Tensor ga = MatMul(g, TransposeLast2(bd));
        Tensor gb = MatMul(TransposeLast2(ad), g);
        if (ga.dim() == 3 && ad.dim() == 2) {
          ga = Sum(ga, 0, /*keepdim=*/false);
        }
        if (gb.dim() == 3 && bd.dim() == 2) {
          gb = Sum(gb, 0, /*keepdim=*/false);
        }
        return {ga, gb};
      });
}

}  // namespace focus
