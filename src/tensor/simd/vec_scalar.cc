// Portable scalar backend of the SIMD layer.
//
// V8 is eight floats processed with the same lane-split order and the
// same per-lane operation semantics as the AVX2 backend (std::fma for
// fused ops, asymmetric Max/Min, nearest-even Round, the identical
// reduction tree). Compiled with -ffp-contract=off so the compiler
// cannot fuse mul+add sequences that the source leaves unfused.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/simd/vec.h"
#include "tensor/simd/vec_common.h"

namespace focus {
namespace simd {
namespace scalar_backend {

constexpr const char* kBackendName = "scalar";
constexpr Backend kBackendId = Backend::kScalar;

struct V8 {
  float v[kLanes];
};
struct M8 {
  bool m[kLanes];
};

inline V8 LoadU(const float* p) {
  V8 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}
inline void StoreU(float* p, V8 a) { std::memcpy(p, a.v, sizeof(a.v)); }
inline V8 LoadN(const float* p, int64_t cols) {
  V8 r = {};
  for (int64_t i = 0; i < cols; ++i) r.v[i] = p[i];
  return r;
}
inline void StoreN(float* p, V8 a, int64_t cols) {
  for (int64_t i = 0; i < cols; ++i) p[i] = a.v[i];
}

inline V8 Add(V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline V8 Sub(V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline V8 Mul(V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline V8 Div(V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}
inline V8 Fma(V8 a, V8 b, V8 c) {
  V8 r;
  for (int i = 0; i < kLanes; ++i)
    r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
  return r;
}
inline V8 Neg(V8 a) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = -a.v[i];
  return r;
}
inline V8 Abs(V8 a) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = std::fabs(a.v[i]);
  return r;
}
// vmaxps/vminps: strict compare, second operand on ties/NaNs.
inline V8 Max(V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i)
    r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline V8 Min(V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i)
    r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline V8 Sqrt(V8 a) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
inline V8 Round(V8 a) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = std::nearbyintf(a.v[i]);
  return r;
}
inline V8 Pow2I(V8 a) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = simd::Pow2I(V1{a.v[i]}).v;
  return r;
}
inline V8 CopySign(V8 mag, V8 sgn) {
  V8 r;
  for (int i = 0; i < kLanes; ++i)
    r.v[i] = std::copysign(mag.v[i], sgn.v[i]);
  return r;
}
inline M8 CmpLt(V8 a, V8 b) {
  M8 r;
  for (int i = 0; i < kLanes; ++i) r.m[i] = a.v[i] < b.v[i];
  return r;
}
inline M8 CmpGt(V8 a, V8 b) {
  M8 r;
  for (int i = 0; i < kLanes; ++i) r.m[i] = a.v[i] > b.v[i];
  return r;
}
inline M8 CmpGe(V8 a, V8 b) {
  M8 r;
  for (int i = 0; i < kLanes; ++i) r.m[i] = a.v[i] >= b.v[i];
  return r;
}
inline V8 Select(M8 m, V8 a, V8 b) {
  V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = m.m[i] ? a.v[i] : b.v[i];
  return r;
}

// The fixed reduction tree (mirrors the AVX2 extract/movehl/shuffle
// sequence): lanes pair as (i, i+4), then (0,2)/(1,3), then the final
// add/max.
inline float ReduceAdd(V8 a) {
  const float z0 = (a.v[0] + a.v[4]) + (a.v[2] + a.v[6]);
  const float z1 = (a.v[1] + a.v[5]) + (a.v[3] + a.v[7]);
  return z0 + z1;
}
inline float ReduceMax(V8 a) {
  const auto mx = [](float x, float y) { return x > y ? x : y; };
  const float y0 = mx(a.v[0], a.v[4]);
  const float y1 = mx(a.v[1], a.v[5]);
  const float y2 = mx(a.v[2], a.v[6]);
  const float y3 = mx(a.v[3], a.v[7]);
  return mx(mx(y0, y2), mx(y1, y3));
}

}  // namespace scalar_backend

template <>
inline scalar_backend::V8 Set1<scalar_backend::V8>(float s) {
  scalar_backend::V8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = s;
  return r;
}

namespace scalar_backend {

using Vec = V8;

#include "tensor/simd/kernels.inc"  // NOLINT(build/include)

}  // namespace scalar_backend
}  // namespace simd
}  // namespace focus
