// Direct (non-im2col) 1D / 2D convolution kernels with fused backward.
// Used by the graph / TCN / inception baselines (MTGNN, Graph WaveNet,
// TimesNet, LightCTS). Sizes in this project are small, so simple loops
// with good inner-stride behaviour are sufficient.
//
// Parallelization: each pass is sharded over an index whose output slices
// are disjoint — (batch, out-channel) for the forward, batch for dX and
// out-channel for dW/db — and inner loop nests keep the per-element
// accumulation order of the serial kernel, so results are bit-identical for
// any FOCUS_NUM_THREADS. FLOP counts are computed once from the resolved
// shapes on the launching thread, outside the parallel regions.
//
// SIMD routing: the stride-1 case (every conv in the model zoo) maps each
// kernel tap to a contiguous inner product — axpy for forward/dX, dot for
// dW — through the SIMD layer; tap order (ci, kk ascending) is preserved,
// so results stay deterministic across backends and thread counts. Strided
// convs keep the scalar gather loops (shared by both backends by
// construction: this TU is compiled once, without ISA-specific flags).
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

// Output range [lo0, lo1) whose stride-1 input index lo + base stays
// inside [0, len).
inline void ValidRange(int64_t base, int64_t len, int64_t out_len,
                       int64_t* lo0, int64_t* lo1) {
  *lo0 = std::max<int64_t>(0, -base);
  *lo1 = std::min(out_len, len - base);
}

}  // namespace

Tensor Conv1d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int64_t stride, int64_t padding, int64_t dilation) {
  FOCUS_OP_INPUT_CHECK("Conv1d", x);
  FOCUS_OP_INPUT_CHECK("Conv1d", w);
  FOCUS_CHECK_EQ(x.dim(), 3) << "Conv1d expects (B, Cin, L)";
  FOCUS_CHECK_EQ(w.dim(), 3) << "Conv1d expects weight (Cout, Cin, K)";
  const int64_t B = x.size(0), Cin = x.size(1), L = x.size(2);
  const int64_t Cout = w.size(0), K = w.size(2);
  FOCUS_CHECK_EQ(w.size(1), Cin) << "Conv1d channel mismatch";
  FOCUS_CHECK_GE(stride, 1);
  FOCUS_CHECK_GE(dilation, 1);
  const int64_t span = (K - 1) * dilation + 1;
  const int64_t Lout = (L + 2 * padding - span) / stride + 1;
  FOCUS_CHECK_GE(Lout, 1) << "Conv1d output length would be < 1";
  const bool has_bias = bias.defined();
  if (has_bias) FOCUS_CHECK_EQ(bias.numel(), Cout);

  // The kernel initializes every row itself (bias fill, or zero-fill
  // without bias): a plan replays it onto recycled slab memory.
  Tensor out = Tensor::Empty({B, Cout, Lout});
  std::vector<Tensor> ins = has_bias ? std::vector<Tensor>{x, w, bias}
                                     : std::vector<Tensor>{x, w};
  plan_hooks::RunStep(
      "Conv1d", std::move(ins), out,
      [has_bias, B, Cin, L, Cout, K, Lout, stride, padding,
       dilation](float* const* bufs) {
        const float* px = bufs[0];
        const float* pw = bufs[1];
        const float* pb = has_bias ? bufs[2] : nullptr;
        float* po = bufs[has_bias ? 3 : 2];
        const simd::KernelTable& kt = simd::Kernels();
        ParallelFor(0, B * Cout, 1, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const int64_t b = r / Cout, co = r % Cout;
            float* orow = po + r * Lout;
            if (pb != nullptr) {
              const float bv = pb[co];
              for (int64_t lo = 0; lo < Lout; ++lo) orow[lo] = bv;
            } else {
              std::memset(orow, 0, sizeof(float) * Lout);
            }
            for (int64_t ci = 0; ci < Cin; ++ci) {
              const float* xrow = px + (b * Cin + ci) * L;
              const float* wrow = pw + (co * Cin + ci) * K;
              for (int64_t kk = 0; kk < K; ++kk) {
                const float wv = wrow[kk];
                const int64_t base = kk * dilation - padding;
                if (stride == 1) {
                  int64_t lo0, lo1;
                  ValidRange(base, L, Lout, &lo0, &lo1);
                  if (lo1 > lo0)
                    kt.axpy(wv, xrow + lo0 + base, orow + lo0, lo1 - lo0);
                } else {
                  for (int64_t lo = 0; lo < Lout; ++lo) {
                    const int64_t li = lo * stride + base;
                    if (li >= 0 && li < L) orow[lo] += wv * xrow[li];
                  }
                }
              }
            }
          }
        });
      });
  FlopCounter::Add(2 * B * Cout * Lout * Cin * K);

  Tensor xd = x.Detach(), wd = w.Detach();
  return autograd::MakeResult(
      out, "Conv1d", {x, w, bias},
      [xd, wd, has_bias, B, Cin, L, Cout, K, Lout, stride, padding,
       dilation](const Tensor& g) -> std::vector<Tensor> {
        Tensor gx = Tensor::Zeros(xd.shape());
        Tensor gw = Tensor::Zeros(wd.shape());
        Tensor gb = has_bias ? Tensor::Zeros({Cout}) : Tensor();
        const float* pg = g.data();
        const float* px = xd.data();
        const float* pw = wd.data();
        float* pgx = gx.data();
        float* pgw = gw.data();
        float* pgb = has_bias ? gb.data() : nullptr;
        const simd::KernelTable& kt = simd::Kernels();
        // dX: batch entries own disjoint gx slices; within one, channels
        // accumulate co-ascending as in the serial kernel.
        ParallelFor(0, B, 1, [&](int64_t b0, int64_t b1) {
          for (int64_t b = b0; b < b1; ++b) {
            for (int64_t co = 0; co < Cout; ++co) {
              const float* grow = pg + (b * Cout + co) * Lout;
              for (int64_t ci = 0; ci < Cin; ++ci) {
                float* gxrow = pgx + (b * Cin + ci) * L;
                const float* wrow = pw + (co * Cin + ci) * K;
                for (int64_t kk = 0; kk < K; ++kk) {
                  const float wv = wrow[kk];
                  const int64_t base = kk * dilation - padding;
                  if (stride == 1) {
                    int64_t lo0, lo1;
                    ValidRange(base, L, Lout, &lo0, &lo1);
                    if (lo1 > lo0)
                      kt.axpy(wv, grow + lo0, gxrow + lo0 + base,
                              lo1 - lo0);
                  } else {
                    for (int64_t lo = 0; lo < Lout; ++lo) {
                      const int64_t li = lo * stride + base;
                      if (li >= 0 && li < L) gxrow[li] += wv * grow[lo];
                    }
                  }
                }
              }
            }
          }
        });
        // dW / db: out-channels own disjoint gw/gb slices; the batch
        // reduction stays b-ascending inside each shard.
        ParallelFor(0, Cout, 1, [&](int64_t c0, int64_t c1) {
          for (int64_t co = c0; co < c1; ++co) {
            for (int64_t b = 0; b < B; ++b) {
              const float* grow = pg + (b * Cout + co) * Lout;
              if (pgb != nullptr) pgb[co] += kt.row_sum(grow, Lout);
              for (int64_t ci = 0; ci < Cin; ++ci) {
                const float* xrow = px + (b * Cin + ci) * L;
                float* gwrow = pgw + (co * Cin + ci) * K;
                for (int64_t kk = 0; kk < K; ++kk) {
                  const int64_t base = kk * dilation - padding;
                  if (stride == 1) {
                    int64_t lo0, lo1;
                    ValidRange(base, L, Lout, &lo0, &lo1);
                    if (lo1 > lo0)
                      gwrow[kk] += kt.dot(xrow + lo0 + base, grow + lo0,
                                          lo1 - lo0);
                  } else {
                    float wacc = 0.0f;
                    for (int64_t lo = 0; lo < Lout; ++lo) {
                      const int64_t li = lo * stride + base;
                      if (li >= 0 && li < L) wacc += xrow[li] * grow[lo];
                    }
                    gwrow[kk] += wacc;
                  }
                }
              }
            }
          }
        });
        FlopCounter::Add(4 * B * Cout * Lout * Cin * K);
        return {gx, gw, gb};
      });
}

Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int64_t stride, int64_t padding) {
  FOCUS_OP_INPUT_CHECK("Conv2d", x);
  FOCUS_OP_INPUT_CHECK("Conv2d", w);
  FOCUS_CHECK_EQ(x.dim(), 4) << "Conv2d expects (B, Cin, H, W)";
  FOCUS_CHECK_EQ(w.dim(), 4) << "Conv2d expects weight (Cout, Cin, KH, KW)";
  const int64_t B = x.size(0), Cin = x.size(1), H = x.size(2), W = x.size(3);
  const int64_t Cout = w.size(0), KH = w.size(2), KW = w.size(3);
  FOCUS_CHECK_EQ(w.size(1), Cin) << "Conv2d channel mismatch";
  const int64_t Hout = (H + 2 * padding - KH) / stride + 1;
  const int64_t Wout = (W + 2 * padding - KW) / stride + 1;
  FOCUS_CHECK(Hout >= 1 && Wout >= 1) << "Conv2d output would be empty";
  if (bias.defined()) FOCUS_CHECK_EQ(bias.numel(), Cout);

  Tensor out = Tensor::Zeros({B, Cout, Hout, Wout});
  const float* px = x.data();
  const float* pw = w.data();
  const float* pb = bias.defined() ? bias.data() : nullptr;
  float* po = out.data();
  const simd::KernelTable& kt = simd::Kernels();
  ParallelFor(0, B * Cout, 1, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / Cout, co = r % Cout;
      float* oplane = po + r * Hout * Wout;
      if (pb != nullptr) {
        const float bv = pb[co];
        for (int64_t i = 0; i < Hout * Wout; ++i) oplane[i] = bv;
      }
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const float* xplane = px + (b * Cin + ci) * H * W;
        const float* wplane = pw + (co * Cin + ci) * KH * KW;
        for (int64_t kh = 0; kh < KH; ++kh) {
          for (int64_t kw = 0; kw < KW; ++kw) {
            const float wv = wplane[kh * KW + kw];
            const int64_t base_w = kw - padding;
            for (int64_t ho = 0; ho < Hout; ++ho) {
              const int64_t hi = ho * stride + kh - padding;
              if (hi < 0 || hi >= H) continue;
              float* orow = oplane + ho * Wout;
              const float* xrow = xplane + hi * W;
              if (stride == 1) {
                int64_t wo0, wo1;
                ValidRange(base_w, W, Wout, &wo0, &wo1);
                if (wo1 > wo0)
                  kt.axpy(wv, xrow + wo0 + base_w, orow + wo0, wo1 - wo0);
              } else {
                for (int64_t wo = 0; wo < Wout; ++wo) {
                  const int64_t wi = wo * stride + base_w;
                  if (wi >= 0 && wi < W) orow[wo] += wv * xrow[wi];
                }
              }
            }
          }
        }
      }
    }
  });
  FlopCounter::Add(2 * B * Cout * Hout * Wout * Cin * KH * KW);

  Tensor xd = x.Detach(), wd = w.Detach();
  const bool has_bias = bias.defined();
  return autograd::MakeResult(
      out, "Conv2d", {x, w, bias},
      [xd, wd, has_bias, B, Cin, H, W, Cout, KH, KW, Hout, Wout, stride,
       padding](const Tensor& g) -> std::vector<Tensor> {
        Tensor gx = Tensor::Zeros(xd.shape());
        Tensor gw = Tensor::Zeros(wd.shape());
        Tensor gb = has_bias ? Tensor::Zeros({Cout}) : Tensor();
        const float* pg = g.data();
        const float* px = xd.data();
        const float* pw = wd.data();
        float* pgx = gx.data();
        float* pgw = gw.data();
        float* pgb = has_bias ? gb.data() : nullptr;
        const simd::KernelTable& kt = simd::Kernels();
        // dX: parallel over batch (disjoint gx planes per shard).
        ParallelFor(0, B, 1, [&](int64_t b0, int64_t b1) {
          for (int64_t b = b0; b < b1; ++b) {
            for (int64_t co = 0; co < Cout; ++co) {
              const float* gplane = pg + (b * Cout + co) * Hout * Wout;
              for (int64_t ci = 0; ci < Cin; ++ci) {
                float* gxplane = pgx + (b * Cin + ci) * H * W;
                const float* wplane = pw + (co * Cin + ci) * KH * KW;
                for (int64_t kh = 0; kh < KH; ++kh) {
                  for (int64_t kw = 0; kw < KW; ++kw) {
                    const float wv = wplane[kh * KW + kw];
                    const int64_t base_w = kw - padding;
                    for (int64_t ho = 0; ho < Hout; ++ho) {
                      const int64_t hi = ho * stride + kh - padding;
                      if (hi < 0 || hi >= H) continue;
                      const float* grow = gplane + ho * Wout;
                      float* gxrow = gxplane + hi * W;
                      if (stride == 1) {
                        int64_t wo0, wo1;
                        ValidRange(base_w, W, Wout, &wo0, &wo1);
                        if (wo1 > wo0)
                          kt.axpy(wv, grow + wo0, gxrow + wo0 + base_w,
                                  wo1 - wo0);
                      } else {
                        for (int64_t wo = 0; wo < Wout; ++wo) {
                          const int64_t wi = wo * stride + base_w;
                          if (wi >= 0 && wi < W)
                            gxrow[wi] += wv * grow[wo];
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        });
        // dW / db: parallel over out-channels (disjoint gw/gb slices).
        ParallelFor(0, Cout, 1, [&](int64_t c0, int64_t c1) {
          for (int64_t co = c0; co < c1; ++co) {
            for (int64_t b = 0; b < B; ++b) {
              const float* gplane = pg + (b * Cout + co) * Hout * Wout;
              if (pgb != nullptr)
                pgb[co] += kt.row_sum(gplane, Hout * Wout);
              for (int64_t ci = 0; ci < Cin; ++ci) {
                const float* xplane = px + (b * Cin + ci) * H * W;
                float* gwplane = pgw + (co * Cin + ci) * KH * KW;
                for (int64_t kh = 0; kh < KH; ++kh) {
                  for (int64_t kw = 0; kw < KW; ++kw) {
                    const int64_t base_w = kw - padding;
                    float wacc = 0.0f;
                    for (int64_t ho = 0; ho < Hout; ++ho) {
                      const int64_t hi = ho * stride + kh - padding;
                      if (hi < 0 || hi >= H) continue;
                      const float* grow = gplane + ho * Wout;
                      const float* xrow = xplane + hi * W;
                      if (stride == 1) {
                        int64_t wo0, wo1;
                        ValidRange(base_w, W, Wout, &wo0, &wo1);
                        if (wo1 > wo0)
                          wacc += kt.dot(xrow + wo0 + base_w, grow + wo0,
                                         wo1 - wo0);
                      } else {
                        for (int64_t wo = 0; wo < Wout; ++wo) {
                          const int64_t wi = wo * stride + base_w;
                          if (wi >= 0 && wi < W)
                            wacc += xrow[wi] * grow[wo];
                        }
                      }
                    }
                    gwplane[kh * KW + kw] += wacc;
                  }
                }
              }
            }
          }
        });
        FlopCounter::Add(4 * B * Cout * Hout * Wout * Cin * KH * KW);
        return {gx, gw, gb};
      });
}

}  // namespace focus
