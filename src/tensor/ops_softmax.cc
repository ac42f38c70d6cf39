// Fused softmax and layer-norm over the last dimension, with analytic
// backward passes (avoids long autograd chains in the attention hot path).
//
// The row kernels (fused max/exp/normalize softmax sweep, layer-norm
// mean/var/normalize) live in the SIMD layer (src/tensor/simd) and
// parallelize over independent rows via ParallelFor; row reductions use
// the layer's fixed 8-lane split anchored at each row start, so results
// are bit-identical for any FOCUS_NUM_THREADS and FOCUS_SIMD backend.
// The layer-norm parameter gradients keep their scalar column-parallel
// loop (a row-major column reduction defeats contiguous vector loads).
// FLOPs are counted once from the resolved shapes, outside the parallel
// regions.
#include <cmath>
#include <vector>

#include "parallel/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/ops_common.h"
#include "tensor/plan_hooks.h"
#include "tensor/simd/vec.h"

namespace focus {

namespace {
// Rows are cheap for small n; shard only when a shard carries at least
// this many scalar elements so pool dispatch never dominates (the grain
// is defined in plan_hooks.h).
using plan_hooks::RowGrain;
}  // namespace

// softmax(scale * x) in one row sweep: the scaled logits are never
// materialized, in eager, training or planned execution alike. The
// kernel's x * scale is the same float32 product MulScalar computes,
// and scale = 1 is exact, so SoftmaxLastDim(x, s) equals
// SoftmaxLastDim(MulScalar(x, s)) bit for bit — forward, backward and
// FLOP count.
Tensor SoftmaxLastDim(const Tensor& x, float scale) {
  FOCUS_OP_INPUT_CHECK("SoftmaxLastDim", x);
  FOCUS_CHECK_GE(x.dim(), 1);
  const int64_t n = x.size(-1);
  const int64_t rows = x.numel() / n;
  const auto rows_kern = simd::Kernels().softmax_rows;
  Tensor out = Tensor::Empty(x.shape());
  plan_hooks::RunStep(
      "Softmax", {x}, out, [rows_kern, scale, rows, n](float* const* bufs) {
        const float* px = bufs[0];
        float* po = bufs[1];
        ParallelFor(0, rows, RowGrain(n), [&](int64_t r0, int64_t r1) {
          rows_kern(px + r0 * n, scale, po + r0 * n, r1 - r0, n);
        });
      });
  // The scale costs what a separate MulScalar would (one FLOP each).
  FlopCounter::Add((scale != 1.0f ? 6 : 5) * x.numel());

  Tensor y_saved = out.Detach();
  return autograd::MakeResult(
      out, "Softmax", {x},
      [y_saved, n, rows, scale](const Tensor& g) -> std::vector<Tensor> {
        // dx_i = scale * y_i * (g_i - sum_j g_j y_j)
        Tensor gin = Tensor::Empty(y_saved.shape());
        const float* pg = g.data();
        const float* py = y_saved.data();
        float* pi = gin.data();
        const auto bwd_kern = simd::Kernels().softmax_bwd_rows;
        ParallelFor(0, rows, RowGrain(n), [&](int64_t r0, int64_t r1) {
          bwd_kern(py + r0 * n, pg + r0 * n, pi + r0 * n, r1 - r0, n);
        });
        FlopCounter::Add(4 * y_saved.numel());
        if (scale == 1.0f) return {gin};
        // The chain rule through the scale, as MulScalar's backward.
        NoGradGuard no_grad;
        return {MulScalar(gin, scale)};
      });
}

Tensor LayerNormLastDim(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps) {
  FOCUS_OP_INPUT_CHECK("LayerNorm", x);
  FOCUS_OP_INPUT_CHECK("LayerNorm", gamma);
  FOCUS_OP_INPUT_CHECK("LayerNorm", beta);
  FOCUS_CHECK_GE(x.dim(), 1);
  const int64_t n = x.size(-1);
  FOCUS_CHECK_EQ(gamma.numel(), n) << "LayerNorm gamma size mismatch";
  FOCUS_CHECK_EQ(beta.numel(), n) << "LayerNorm beta size mismatch";
  const int64_t rows = x.numel() / n;

  Tensor out = Tensor::Empty(x.shape());
  // Per-row statistics for backward (raw buffers, not autograd tensors).
  // A plan has no backward pass to save them for, so replays write them
  // to per-step slab scratch instead.
  std::vector<float> means(static_cast<size_t>(rows));
  std::vector<float> rstds(static_cast<size_t>(rows));
  const auto rows_kern = simd::Kernels().layernorm_rows;
  plan_hooks::RunStep(
      "LayerNorm", {x, gamma, beta}, out,
      [rows_kern, rows, n, eps](float* const* bufs) {
        const float* px = bufs[0];
        const float* pgm = bufs[1];
        const float* pbt = bufs[2];
        float* po = bufs[3];
        float* pmeans = bufs[4];
        float* prstds = bufs[5];
        ParallelFor(0, rows, RowGrain(n), [&](int64_t r0, int64_t r1) {
          rows_kern(px + r0 * n, pgm, pbt, eps, po + r0 * n, pmeans + r0,
                    prstds + r0, r1 - r0, n);
        });
      },
      {&means, &rstds});
  FlopCounter::Add(8 * x.numel());

  Tensor x_saved = x.Detach();
  Tensor gamma_saved = gamma.Detach();
  return autograd::MakeResult(
      out, "LayerNorm", {x, gamma, beta},
      [x_saved, gamma_saved, means, rstds, n,
       rows](const Tensor& g) -> std::vector<Tensor> {
        Tensor gx = Tensor::Empty(x_saved.shape());
        Tensor ggamma = Tensor::Zeros({n});
        Tensor gbeta = Tensor::Zeros({n});
        const float* pg = g.data();
        const float* px = x_saved.data();
        const float* pgm = gamma_saved.data();
        const float* pmeans = means.data();
        const float* prstds = rstds.data();
        float* pgx = gx.data();
        float* pgg = ggamma.data();
        float* pgb = gbeta.data();
        // dX: rows are independent; the fused SIMD kernel computes
        // rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat)) with
        // dxhat_i = g_i * gamma_i.
        const auto dx_kern = simd::Kernels().layernorm_bwd_dx_rows;
        ParallelFor(0, rows, RowGrain(n), [&](int64_t r0, int64_t r1) {
          dx_kern(px + r0 * n, pg + r0 * n, pgm, pmeans + r0,
                  prstds + r0, pgx + r0 * n, r1 - r0, n);
        });
        // dgamma/dbeta: columns are independent; the row reduction stays
        // r-ascending inside each column, matching the serial order.
        ParallelFor(0, n, 16, [&](int64_t c0, int64_t c1) {
          for (int64_t r = 0; r < rows; ++r) {
            const float mean = pmeans[r];
            const float rstd = prstds[r];
            const float* gi = pg + r * n;
            const float* xi = px + r * n;
            for (int64_t i = c0; i < c1; ++i) {
              // xhat first, then gi * xhat — the same association as the
              // pre-pool serial kernel, so golden values carry over bit-exact.
              const float xhat = (xi[i] - mean) * rstd;
              pgg[i] += gi[i] * xhat;
              pgb[i] += gi[i];
            }
          }
        });
        FlopCounter::Add(12 * x_saved.numel());
        // gamma/beta grads must match the parameter shapes exactly.
        return {gx, Reshape(ggamma, gamma_saved.shape()),
                Reshape(gbeta, gamma_saved.shape())};
      });
}

}  // namespace focus
