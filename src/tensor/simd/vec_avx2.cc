// AVX2 + FMA backend of the SIMD layer. The only translation unit in
// the repository allowed to include <immintrin.h> (enforced by
// scripts/focus_lint.py). Compiled with -mavx2 -mfma
// -ffp-contract=off; only entered at runtime after CPUID confirms
// both features (dispatch.cc).
#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/simd/vec.h"
#include "tensor/simd/vec_common.h"

namespace focus {
namespace simd {
namespace avx2_backend {

constexpr const char* kBackendName = "avx2";
constexpr Backend kBackendId = Backend::kAvx2;

struct V8 {
  __m256 r;
};
struct M8 {
  __m256 r;
};

inline V8 LoadU(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void StoreU(float* p, V8 a) { _mm256_storeu_ps(p, a.r); }
// Lanes [0, cols) set: vmaskmovps neither reads nor writes the others.
inline __m256i LaneMask(int64_t cols) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline V8 LoadN(const float* p, int64_t cols) {
  return {_mm256_maskload_ps(p, LaneMask(cols))};
}
inline void StoreN(float* p, V8 a, int64_t cols) {
  _mm256_maskstore_ps(p, LaneMask(cols), a.r);
}

inline V8 Add(V8 a, V8 b) { return {_mm256_add_ps(a.r, b.r)}; }
inline V8 Sub(V8 a, V8 b) { return {_mm256_sub_ps(a.r, b.r)}; }
inline V8 Mul(V8 a, V8 b) { return {_mm256_mul_ps(a.r, b.r)}; }
inline V8 Div(V8 a, V8 b) { return {_mm256_div_ps(a.r, b.r)}; }
inline V8 Fma(V8 a, V8 b, V8 c) {
  return {_mm256_fmadd_ps(a.r, b.r, c.r)};
}
inline V8 Neg(V8 a) {
  return {_mm256_xor_ps(a.r, _mm256_set1_ps(-0.0f))};
}
inline V8 Abs(V8 a) {
  return {_mm256_andnot_ps(_mm256_set1_ps(-0.0f), a.r)};
}
inline V8 Max(V8 a, V8 b) { return {_mm256_max_ps(a.r, b.r)}; }
inline V8 Min(V8 a, V8 b) { return {_mm256_min_ps(a.r, b.r)}; }
inline V8 Sqrt(V8 a) { return {_mm256_sqrt_ps(a.r)}; }
inline V8 Round(V8 a) {
  return {_mm256_round_ps(
      a.r, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}
// 2^a for integral-valued a with a+127 in [1, 254].
inline V8 Pow2I(V8 a) {
  const __m256i e = _mm256_add_epi32(_mm256_cvtps_epi32(a.r),
                                     _mm256_set1_epi32(127));
  return {_mm256_castsi256_ps(_mm256_slli_epi32(e, 23))};
}
inline V8 CopySign(V8 mag, V8 sgn) {
  const __m256 mask = _mm256_set1_ps(-0.0f);
  return {_mm256_or_ps(_mm256_and_ps(sgn.r, mask),
                       _mm256_andnot_ps(mask, mag.r))};
}
inline M8 CmpLt(V8 a, V8 b) {
  return {_mm256_cmp_ps(a.r, b.r, _CMP_LT_OQ)};
}
inline M8 CmpGt(V8 a, V8 b) {
  return {_mm256_cmp_ps(a.r, b.r, _CMP_GT_OQ)};
}
inline M8 CmpGe(V8 a, V8 b) {
  return {_mm256_cmp_ps(a.r, b.r, _CMP_GE_OQ)};
}
inline V8 Select(M8 m, V8 a, V8 b) {
  return {_mm256_blendv_ps(b.r, a.r, m.r)};
}

// Fixed reduction tree: (i, i+4) via the 128-bit halves, then
// (0,2)/(1,3) via movehl, then the final scalar op. The scalar
// backend mirrors exactly this association.
inline float ReduceAdd(V8 a) {
  const __m128 lo = _mm256_castps256_ps128(a.r);
  const __m128 hi = _mm256_extractf128_ps(a.r, 1);
  const __m128 y = _mm_add_ps(lo, hi);
  const __m128 z = _mm_add_ps(y, _mm_movehl_ps(y, y));
  const __m128 w = _mm_add_ss(z, _mm_shuffle_ps(z, z, 0x1));
  return _mm_cvtss_f32(w);
}
inline float ReduceMax(V8 a) {
  const __m128 lo = _mm256_castps256_ps128(a.r);
  const __m128 hi = _mm256_extractf128_ps(a.r, 1);
  const __m128 y = _mm_max_ps(lo, hi);
  const __m128 z = _mm_max_ps(y, _mm_movehl_ps(y, y));
  const __m128 w = _mm_max_ss(z, _mm_shuffle_ps(z, z, 0x1));
  return _mm_cvtss_f32(w);
}

}  // namespace avx2_backend

template <>
inline avx2_backend::V8 Set1<avx2_backend::V8>(float s) {
  return {_mm256_set1_ps(s)};
}

namespace avx2_backend {

using Vec = V8;

#include "tensor/simd/kernels.inc"  // NOLINT(build/include)

}  // namespace avx2_backend
}  // namespace simd
}  // namespace focus
