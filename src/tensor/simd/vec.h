// Public entry point of the SIMD vector-kernel layer.
//
// Every hot tensor kernel (matmul microkernel, elementwise, reductions,
// softmax, layernorm, conv inner products) is written once against a
// fixed-width 8-lane float micro-API and compiled into two backends:
//
//   * avx2   — AVX2 + FMA intrinsics (vec_avx2.cc), selected at runtime
//              when the CPU supports both (CPUID via
//              __builtin_cpu_supports) and the build enabled it
//              (-DFOCUS_SIMD=ON, the default).
//   * scalar — a portable backend (vec_scalar.cc) that *emulates* the
//              8-lane split: same per-element operation sequence, same
//              fixed reduction tree, std::fma for every fused op.
//
// Both backends are generated from the same kernel source
// (kernels.inc), so for every input the two execute the identical
// IEEE-754 operation per element in the identical order. That is the
// lane-order determinism contract: results are bit-identical across
// ISA, across FOCUS_SIMD=OFF builds, and across thread counts (lane
// splits are anchored to row/tile starts, never to thread chunk
// boundaries that could move).
//
// Transcendentals (exp/tanh/sigmoid/erf/gelu) never call libm in either
// backend; both evaluate the shared float-only polynomials in
// vec_common.h (provenance: scripts/gen_simd_coeffs.py), because libm's
// results vary by libc version and ISA and would break the contract.
//
// Dispatch: the table is resolved once, on first use, from (in order)
// a programmatic SetBackend() override, the FOCUS_SIMD environment
// variable ("scalar"/"off" | "avx2" | "auto"), then CPUID.
#ifndef FOCUS_TENSOR_SIMD_VEC_H_
#define FOCUS_TENSOR_SIMD_VEC_H_

#include <cstdint>

namespace focus {
namespace simd {

// Lane width every kernel is written against. Fixed at 8 regardless of
// what the hardware offers (AVX-512 machines still run 8-lane AVX2
// kernels); changing it would change accumulation trees and break
// bit-compatibility with recorded results.
inline constexpr int kLanes = 8;

enum class Backend { kScalar, kAvx2 };

// Longest row the nearest-prototype kernel takes: it holds one block of
// 8 rows on the stack (16 KB at this length).
inline constexpr int64_t kMaxSegmentLength = 512;

// How the nearest-prototype kernel prepares each row before its search.
enum class RowPrep {
  kNone,            // search the rows as given
  kZNormalize,      // z-normalize first (ProtoAttn tokens, Fig. 11)
  kZNormalizeInt8,  // z-normalize, then round to a symmetric int8 grid
};

// A prototype bank's Eq. 6 statistics (cluster::PrototypeBank owns them).
struct ProtoBankView {
  const float* centered;  // (k, p) rows c - mean(c)
  const double* mean;     // (k)
  const float* var;       // (k) sum (c - mean(c))^2
  int64_t k;
  int64_t p;              // at most kMaxSegmentLength
};

// A resolved set of kernel entry points. All pointers are non-null in
// every table. Buffers may be unaligned (kernels use unaligned loads);
// `n` counts are in floats and may be 0. Binary/unary kernels allow
// out == input aliasing (they are pure elementwise); `axpy` and
// `add_inplace` accumulate into their destination.
struct KernelTable {
  const char* name;  // "scalar" or "avx2"
  Backend backend;

  // C-tile of the blocked matmul: rows [i0, i1) of a row-major k x n
  // panel product, at (rows-major a block) times bt (k x n b panel),
  // accumulating each element as one k-ascending FMA chain.
  void (*matmul_row_block)(const float* at, const float* bt, float* ct,
                           int64_t i0, int64_t i1, int64_t k, int64_t n);

  // Elementwise binary over contiguous equal-length arrays.
  void (*add)(const float* a, const float* b, float* o, int64_t n);
  void (*sub)(const float* a, const float* b, float* o, int64_t n);
  void (*mul)(const float* a, const float* b, float* o, int64_t n);
  void (*div)(const float* a, const float* b, float* o, int64_t n);
  void (*add_inplace)(float* a, const float* b, int64_t n);
  void (*add_scalar)(const float* x, float s, float* o, int64_t n);
  void (*mul_scalar)(const float* x, float s, float* o, int64_t n);

  // BLAS-1 style helpers. axpy: y[i] = fma(s, x[i], y[i]).
  // dot / row_sum reduce with the fixed 8-lane split + tree
  // (see kernels.inc) so the result is backend- and
  // thread-count-invariant for a given [x, x+n) range.
  void (*axpy)(float s, const float* x, float* y, int64_t n);
  float (*dot)(const float* a, const float* b, int64_t n);
  float (*row_sum)(const float* x, int64_t n);

  // Unary forward maps (shared-polynomial transcendentals).
  void (*exp_fwd)(const float* x, float* o, int64_t n);
  void (*tanh_fwd)(const float* x, float* o, int64_t n);
  void (*sigmoid_fwd)(const float* x, float* o, int64_t n);
  void (*erf_fwd)(const float* x, float* o, int64_t n);
  void (*gelu_fwd)(const float* x, float* o, int64_t n);
  void (*relu_fwd)(const float* x, float* o, int64_t n);
  void (*sqrt_fwd)(const float* x, float* o, int64_t n);

  // Unary backward maps: o = dL/dx from the saved forward tensor
  // (input x or output y, whichever the op saves) and incoming grad g.
  void (*tanh_bwd)(const float* y, const float* g, float* o, int64_t n);
  void (*sigmoid_bwd)(const float* y, const float* g, float* o,
                      int64_t n);
  void (*erf_bwd)(const float* x, const float* g, float* o, int64_t n);
  void (*gelu_bwd)(const float* x, const float* g, float* o, int64_t n);
  void (*relu_bwd)(const float* x, const float* g, float* o, int64_t n);
  void (*sqrt_bwd)(const float* y, const float* g, float* o, int64_t n);

  // Fused row kernels over `rows` contiguous rows of length n.
  // softmax_rows computes softmax(s * x) per row in one sweep; s = 1
  // is the plain softmax (x * 1.0f is exact).
  void (*softmax_rows)(const float* x, float s, float* y, int64_t rows,
                       int64_t n);
  void (*softmax_bwd_rows)(const float* y, const float* g, float* gx,
                           int64_t rows, int64_t n);
  void (*layernorm_rows)(const float* x, const float* gamma,
                         const float* beta, float eps, float* y,
                         float* means, float* rstds, int64_t rows,
                         int64_t n);
  void (*layernorm_bwd_dx_rows)(const float* x, const float* g,
                                const float* gamma, const float* means,
                                const float* rstds, float* gx,
                                int64_t rows, int64_t n);

  // Eq. 6 nearest prototype of each of `n` length-p rows (the Algorithm 1
  // assignment and Algorithm 2's token assignment). Each row is prepared
  // per `prep`, centered with a double mean m_t, and searched:
  //   x = dot(t~, c~) and var_t = dot(t~, t~), each summed like `dot`,
  //   dist = max(var_t + var_c - 2x, 0) + float(p (m_t - m_c)^2)
  //          + alpha (1 - x / sqrt(var_t var_c)),
  // with the correlation 0 when var_t or var_c is below 1e-12. The first
  // minimum wins. Writes idx[i] and dist[i]; either may be null. Rows run
  // 8 to a pass, one per lane, and a row's bits depend only on the row.
  void (*nearest_prototypes)(const float* rows, int64_t n,
                             const ProtoBankView& bank, float alpha,
                             RowPrep prep, int64_t* idx, float* dist);
};

// The active kernel table. First call resolves the backend (cheap
// atomic load afterwards); safe to call concurrently.
const KernelTable& Kernels();

// Identity of the active backend (resolving it if needed).
Backend ActiveBackend();
const char* BackendName();

// True when the AVX2 backend is compiled in *and* the CPU reports
// AVX2 + FMA support.
bool Avx2Available();

// Programmatic override (tests / benchmarks). Returns false — leaving
// the active table unchanged — if the requested backend is
// unavailable. Not safe concurrently with running kernels.
bool SetBackend(Backend backend);

// Drops any SetBackend() override and re-resolves from FOCUS_SIMD /
// CPUID. Not safe concurrently with running kernels.
void ReinitFromEnv();

}  // namespace simd
}  // namespace focus

#endif  // FOCUS_TENSOR_SIMD_VEC_H_
