// SIMD layer contract tests.
//
// Three contracts, in order of importance:
//   1. Bit-identity: for every kernel in simd::KernelTable the AVX2 and
//      scalar backends produce byte-identical outputs, including the odd
//      tails (n = 1..17 crosses every lane-remainder case twice) and a
//      large buffer. This is what makes FOCUS_SIMD a pure acceleration
//      knob rather than a numerics knob. The matmul micro-kernel is also
//      checked per backend against its naive FMA-chain reference, and the
//      Eq. 6 nearest-prototype search against the pair-at-a-time loop it
//      replaced (indices and distances), with no heap allocation.
//   2. Accuracy: the shared polynomial transcendentals stay within 4 ULP
//      of double-precision libm rounded to float across their full
//      argument ranges (exp over [-88, 88], tanh/erf over [-10, 10]).
//   3. Dispatch: FOCUS_SIMD=scalar|avx2|auto resolves to the documented
//      backend on this machine.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/simd/vec.h"
#include "tensor/tensor.h"

namespace focus {
namespace {

// Deterministic pseudo-random floats in (lo, hi); plain LCG so the test
// inputs are reproducible without the tensor Rng.
std::vector<float> TestVec(int64_t n, uint32_t seed, float lo = -3.0f,
                           float hi = 3.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t s = seed * 2654435761u + 12345u;
  for (float& x : v) {
    s = s * 1664525u + 1013904223u;
    const float u = static_cast<float>(s >> 8) / 16777216.0f;  // [0, 1)
    x = lo + (hi - lo) * u;
  }
  return v;
}

// n = 1..17 crosses the 8-lane boundary twice (every tail remainder, the
// exact-multiple cases, and one odd block past them); 1037 exercises the
// long-stride main loop.
const int64_t kSizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                          10, 11, 12, 13, 14, 15, 16, 17, 1037};

// Runs `run` once per backend and asserts the `out_n`-float outputs are
// byte-identical. Callers must SetUp via SimdBitIdentityTest (skips when
// the AVX2 backend is unavailable).
void ExpectBackendsMatch(
    const std::function<void(const simd::KernelTable&, float*)>& run,
    int64_t out_n, const std::string& what) {
  std::vector<float> scalar_out(static_cast<size_t>(out_n), -777.0f);
  std::vector<float> avx2_out(static_cast<size_t>(out_n), -777.0f);
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  run(simd::Kernels(), scalar_out.data());
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kAvx2));
  run(simd::Kernels(), avx2_out.data());
  ASSERT_EQ(0, std::memcmp(scalar_out.data(), avx2_out.data(),
                           static_cast<size_t>(out_n) * sizeof(float)))
      << what << ": scalar and avx2 outputs differ";
}

class SimdBitIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::Avx2Available()) {
      GTEST_SKIP() << "AVX2 backend not compiled in or not supported";
    }
  }
  void TearDown() override { simd::ReinitFromEnv(); }
};

TEST_F(SimdBitIdentityTest, BinaryKernels) {
  using BinK = void (*)(const float*, const float*, float*, int64_t);
  struct Entry {
    const char* name;
    BinK simd::KernelTable::* kern;
  };
  const Entry kEntries[] = {
      {"add", &simd::KernelTable::add},
      {"sub", &simd::KernelTable::sub},
      {"mul", &simd::KernelTable::mul},
      {"div", &simd::KernelTable::div},
  };
  for (const Entry& e : kEntries) {
    for (int64_t n : kSizes) {
      const auto a = TestVec(n, 1);
      // Denominators bounded away from 0 so div stays finite.
      const auto b = TestVec(n, 2, 0.5f, 4.0f);
      ExpectBackendsMatch(
          [&](const simd::KernelTable& kt, float* o) {
            (kt.*e.kern)(a.data(), b.data(), o, n);
          },
          n, std::string(e.name) + " n=" + std::to_string(n));
    }
  }
}

TEST_F(SimdBitIdentityTest, AccumulatingAndScalarKernels) {
  for (int64_t n : kSizes) {
    const auto x = TestVec(n, 3);
    const auto y0 = TestVec(n, 4);
    const std::string sz = " n=" + std::to_string(n);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          std::memcpy(o, y0.data(), static_cast<size_t>(n) * sizeof(float));
          kt.add_inplace(o, x.data(), n);
        },
        n, "add_inplace" + sz);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          std::memcpy(o, y0.data(), static_cast<size_t>(n) * sizeof(float));
          kt.axpy(1.7f, x.data(), o, n);
        },
        n, "axpy" + sz);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          kt.add_scalar(x.data(), 0.37f, o, n);
        },
        n, "add_scalar" + sz);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          kt.mul_scalar(x.data(), -2.13f, o, n);
        },
        n, "mul_scalar" + sz);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          o[0] = kt.dot(x.data(), y0.data(), n);
        },
        1, "dot" + sz);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          o[0] = kt.row_sum(x.data(), n);
        },
        1, "row_sum" + sz);
  }
}

TEST_F(SimdBitIdentityTest, UnaryForwardKernels) {
  using UnK = void (*)(const float*, float*, int64_t);
  struct Entry {
    const char* name;
    UnK simd::KernelTable::* kern;
    float lo, hi;  // input range (sqrt needs non-negative inputs)
  };
  const Entry kEntries[] = {
      {"exp", &simd::KernelTable::exp_fwd, -20.0f, 20.0f},
      {"tanh", &simd::KernelTable::tanh_fwd, -6.0f, 6.0f},
      {"sigmoid", &simd::KernelTable::sigmoid_fwd, -20.0f, 20.0f},
      {"erf", &simd::KernelTable::erf_fwd, -6.0f, 6.0f},
      {"gelu", &simd::KernelTable::gelu_fwd, -6.0f, 6.0f},
      {"relu", &simd::KernelTable::relu_fwd, -3.0f, 3.0f},
      {"sqrt", &simd::KernelTable::sqrt_fwd, 0.0f, 9.0f},
  };
  for (const Entry& e : kEntries) {
    for (int64_t n : kSizes) {
      const auto x = TestVec(n, 5, e.lo, e.hi);
      ExpectBackendsMatch(
          [&](const simd::KernelTable& kt, float* o) {
            (kt.*e.kern)(x.data(), o, n);
          },
          n, std::string(e.name) + "_fwd n=" + std::to_string(n));
    }
  }
}

TEST_F(SimdBitIdentityTest, UnaryBackwardKernels) {
  using BinK = void (*)(const float*, const float*, float*, int64_t);
  struct Entry {
    const char* name;
    BinK simd::KernelTable::* kern;
    float lo, hi;  // saved-tensor range (sqrt_bwd divides by saved y)
  };
  const Entry kEntries[] = {
      {"tanh", &simd::KernelTable::tanh_bwd, -0.99f, 0.99f},
      {"sigmoid", &simd::KernelTable::sigmoid_bwd, 0.01f, 0.99f},
      {"erf", &simd::KernelTable::erf_bwd, -6.0f, 6.0f},
      {"gelu", &simd::KernelTable::gelu_bwd, -6.0f, 6.0f},
      {"relu", &simd::KernelTable::relu_bwd, -3.0f, 3.0f},
      {"sqrt", &simd::KernelTable::sqrt_bwd, 0.5f, 3.0f},
  };
  for (const Entry& e : kEntries) {
    for (int64_t n : kSizes) {
      const auto saved = TestVec(n, 6, e.lo, e.hi);
      const auto g = TestVec(n, 7);
      ExpectBackendsMatch(
          [&](const simd::KernelTable& kt, float* o) {
            (kt.*e.kern)(saved.data(), g.data(), o, n);
          },
          n, std::string(e.name) + "_bwd n=" + std::to_string(n));
    }
  }
}

TEST_F(SimdBitIdentityTest, MatMulRowBlock) {
  struct Dims {
    int64_t m, k, n;
  };
  // Covers the 4x16 and 4x8 tiles, the 2- and 1-row remainders, the
  // masked column tail, and degenerate edges.
  const Dims kDims[] = {{4, 16, 8}, {5, 13, 11}, {3, 7, 17},
                        {1, 1, 1},  {6, 9, 3},   {9, 33, 24}};
  for (const Dims& d : kDims) {
    const auto a = TestVec(d.m * d.k, 8);
    const auto b = TestVec(d.k * d.n, 9);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          kt.matmul_row_block(a.data(), b.data(), o, 0, d.m, d.k, d.n);
        },
        d.m * d.n,
        "matmul_row_block m=" + std::to_string(d.m) +
            " k=" + std::to_string(d.k) + " n=" + std::to_string(d.n));
  }
}

// Each backend's matmul_row_block against the naive reference: every
// C element is one k-ascending std::fma chain from 0, so the kernel must
// match it bit for bit on every tile shape and column tail. (Comparing
// the backends with each other would pass a change that moved both.)
// C rows are contiguous (the kernel's row stride is n), so canaries fill
// everything outside the block: before its first row (i0 > 0) and after
// its last. Every row of a panel stores with the same lane count, so an
// overrun on any row also shows past the block's last row. The last A
// row starts with -Inf: a masked-out lane that is computed (0 * -Inf =
// NaN) and leaks into a store breaks the memcmp.
class SimdMatMulReferenceTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ReinitFromEnv(); }
};

TEST_F(SimdMatMulReferenceTest, RowBlockMatchesAscendingFmaChain) {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  const int64_t kNs[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
                         13, 14, 15, 16, 17, 23, 24, 31, 32, 33, 64};
  const int64_t kKs[] = {1, 6, 64};
  constexpr int64_t kCanaryN = 9;  // floats past the last C row
  constexpr float kCanary = -12345.5f;
  struct Block {
    int64_t i0, i1;
  };
  std::vector<Block> blocks;
  for (int64_t m = 1; m <= 9; ++m) blocks.push_back({0, m});
  blocks.push_back({3, 9});
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    const simd::KernelTable& kt = simd::Kernels();
    for (int64_t k : kKs) {
      for (int64_t n : kNs) {
        for (const Block& blk : blocks) {
          auto a = TestVec(blk.i1 * k, 14);
          a[static_cast<size_t>((blk.i1 - 1) * k)] = -INFINITY;
          const auto b = TestVec(k * n, 15);
          const size_t c_n = static_cast<size_t>(blk.i1 * n + kCanaryN);
          std::vector<float> want(c_n, kCanary);
          for (int64_t i = blk.i0; i < blk.i1; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              float s = 0.0f;
              for (int64_t kk = 0; kk < k; ++kk)
                s = std::fma(a[static_cast<size_t>(i * k + kk)],
                             b[static_cast<size_t>(kk * n + j)], s);
              want[static_cast<size_t>(i * n + j)] = s;
            }
          }
          std::vector<float> got(c_n, kCanary);
          kt.matmul_row_block(a.data(), b.data(), got.data(), blk.i0,
                              blk.i1, k, n);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   c_n * sizeof(float)))
              << kt.name << " matmul_row_block rows [" << blk.i0 << ", "
              << blk.i1 << ") k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST_F(SimdBitIdentityTest, RowKernels) {
  const int64_t rows = 3;
  for (int64_t n : kSizes) {
    const auto x = TestVec(rows * n, 10);
    const auto g = TestVec(rows * n, 11);
    const auto gamma = TestVec(n, 12, 0.5f, 1.5f);
    const auto beta = TestVec(n, 13);
    const std::string sz = " n=" + std::to_string(n);
    for (float scale : {1.0f, 0.3f}) {
      ExpectBackendsMatch(
          [&](const simd::KernelTable& kt, float* o) {
            kt.softmax_rows(x.data(), scale, o, rows, n);
          },
          rows * n, "softmax_rows s=" + std::to_string(scale) + sz);
    }
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          // y rows must be a valid softmax output; reuse the kernel.
          std::vector<float> y(static_cast<size_t>(rows * n));
          kt.softmax_rows(x.data(), 1.0f, y.data(), rows, n);
          kt.softmax_bwd_rows(y.data(), g.data(), o, rows, n);
        },
        rows * n, "softmax_bwd_rows" + sz);
    // Layer-norm outputs y plus the saved means/rstds, all compared.
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          kt.layernorm_rows(x.data(), gamma.data(), beta.data(), 1e-5f, o,
                            o + rows * n, o + rows * n + rows, rows, n);
        },
        rows * n + 2 * rows, "layernorm_rows" + sz);
    ExpectBackendsMatch(
        [&](const simd::KernelTable& kt, float* o) {
          std::vector<float> y(static_cast<size_t>(rows * n));
          std::vector<float> means(static_cast<size_t>(rows));
          std::vector<float> rstds(static_cast<size_t>(rows));
          kt.layernorm_rows(x.data(), gamma.data(), beta.data(), 1e-5f,
                            y.data(), means.data(), rstds.data(), rows, n);
          kt.layernorm_bwd_dx_rows(x.data(), g.data(), gamma.data(),
                                   means.data(), rstds.data(), o, rows, n);
        },
        rows * n, "layernorm_bwd_dx_rows" + sz);
  }
}

// End-to-end: the public ops (which route through ParallelFor and the
// dispatch table) must also be backend-invariant, forward and backward.
void ExpectPublicOpsBackendInvariant(int64_t rows) {
  auto run = [rows](simd::Backend backend) {
    EXPECT_TRUE(simd::SetBackend(backend));
    Rng rng(31);
    Tensor a = Tensor::Randn({rows, 129}, rng);
    Tensor b = Tensor::Randn({rows, 129}, rng);
    Tensor w = Tensor::Randn({129, 33}, rng);
    Tensor gamma = Tensor::Randn({33}, rng);
    Tensor beta = Tensor::Randn({33}, rng);
    for (Tensor* t : {&a, &b, &w, &gamma, &beta}) {
      t->SetRequiresGrad(true);
    }
    Tensor h = MatMul(Gelu(Add(Mul(a, b), Erf(b))), w);
    Tensor out = SoftmaxLastDim(LayerNormLastDim(h, gamma, beta, 1e-5f));
    SumAll(out).Backward();
    std::vector<Tensor> r = {out};
    for (Tensor* t : {&a, &b, &w, &gamma, &beta}) r.push_back(t->Grad());
    return r;
  };
  std::vector<Tensor> avx2 = run(simd::Backend::kAvx2);
  std::vector<Tensor> scalar = run(simd::Backend::kScalar);
  ASSERT_EQ(avx2.size(), scalar.size());
  for (size_t t = 0; t < avx2.size(); ++t) {
    ASSERT_TRUE(avx2[t].defined());
    ASSERT_EQ(avx2[t].shape(), scalar[t].shape()) << "tensor " << t;
    EXPECT_EQ(0, std::memcmp(avx2[t].data(), scalar[t].data(),
                             static_cast<size_t>(avx2[t].numel()) *
                                 sizeof(float)))
        << "tensor " << t << " differs between backends at " << rows
        << " rows";
  }
}

// At 7 rows and at 2048, where every op's kernel splits across the pool.
TEST_F(SimdBitIdentityTest, PublicOpsForwardBackward) {
  for (int64_t rows : {7, 2048}) {
    ExpectPublicOpsBackendInvariant(rows);
  }
}

// --- accuracy ---------------------------------------------------------------

// Maps float bits to a monotonic integer line so ULP distance is a
// subtraction; +0 and -0 coincide.
int64_t OrderedBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return (u & 0x80000000u) ? -static_cast<int64_t>(u & 0x7fffffffu)
                           : static_cast<int64_t>(u);
}

int64_t UlpDiff(float a, float b) {
  const int64_t d = OrderedBits(a) - OrderedBits(b);
  return d < 0 ? -d : d;
}

void ExpectUlpBound(void (*kern)(const float*, float*, int64_t),
                    double (*ref)(double), float lo, float hi,
                    int64_t points, int64_t bound, const char* name) {
  std::vector<float> x(static_cast<size_t>(points));
  std::vector<float> y(static_cast<size_t>(points));
  for (int64_t i = 0; i < points; ++i) {
    x[static_cast<size_t>(i)] =
        lo + (hi - lo) * static_cast<float>(i) /
                 static_cast<float>(points - 1);
  }
  kern(x.data(), y.data(), points);
  int64_t worst = 0;
  float worst_x = 0.0f;
  for (int64_t i = 0; i < points; ++i) {
    const float xi = x[static_cast<size_t>(i)];
    const float want =
        static_cast<float>(ref(static_cast<double>(xi)));
    const int64_t d = UlpDiff(y[static_cast<size_t>(i)], want);
    if (d > worst) {
      worst = d;
      worst_x = xi;
    }
  }
  EXPECT_LE(worst, bound) << name << ": worst " << worst << " ULP at x="
                          << worst_x;
}

TEST(SimdAccuracyTest, ExpWithin4UlpOfLibm) {
  ExpectUlpBound(simd::Kernels().exp_fwd, std::exp, -88.0f, 88.0f,
                 200001, 4, "exp");
}

TEST(SimdAccuracyTest, TanhWithin4UlpOfLibm) {
  ExpectUlpBound(simd::Kernels().tanh_fwd, std::tanh, -10.0f, 10.0f,
                 200001, 4, "tanh");
}

TEST(SimdAccuracyTest, ErfWithin4UlpOfLibm) {
  ExpectUlpBound(simd::Kernels().erf_fwd, std::erf, -10.0f, 10.0f,
                 200001, 4, "erf");
}

// Saturation and special values: exp underflows to +0 and overflows to
// +inf exactly; tanh/erf saturate to ±1 well inside float range.
TEST(SimdAccuracyTest, ExtremeArguments) {
  const simd::KernelTable& kt = simd::Kernels();
  const float x[] = {-1000.0f, -104.0f, 89.0f, 1000.0f, 0.0f, -0.0f};
  float y[6];
  kt.exp_fwd(x, y, 6);
  EXPECT_EQ(0.0f, y[0]);
  EXPECT_EQ(0.0f, y[1]);
  EXPECT_TRUE(std::isinf(y[2]));
  EXPECT_TRUE(std::isinf(y[3]));
  EXPECT_EQ(1.0f, y[4]);
  EXPECT_EQ(1.0f, y[5]);
  kt.tanh_fwd(x, y, 6);
  EXPECT_EQ(-1.0f, y[0]);
  EXPECT_EQ(1.0f, y[2]);
  EXPECT_EQ(0.0f, y[4]);
  kt.erf_fwd(x, y, 6);
  EXPECT_EQ(-1.0f, y[0]);
  EXPECT_EQ(1.0f, y[2]);
  EXPECT_EQ(0.0f, y[4]);
}

// --- Eq. 6 nearest prototype --------------------------------------------

// The pair-at-a-time search the nearest_prototypes kernel replaced, kept
// here as its reference: per row, ZNormalize, the int8 rounding, Center,
// then one `dot` per (row, prototype) pair and a scalar epilogue.
struct RefBank {
  std::vector<float> centered;
  std::vector<double> mean;
  std::vector<float> var;
  int64_t k, p;
  simd::ProtoBankView View() const {
    return {centered.data(), mean.data(), var.data(), k, p};
  }
};

double RefCenter(const float* row, int64_t p, float* out) {
  double mean = 0;
  for (int64_t d = 0; d < p; ++d) mean += row[d];
  mean /= p;
  for (int64_t d = 0; d < p; ++d) out[d] = static_cast<float>(row[d] - mean);
  return mean;
}

RefBank MakeRefBank(const std::vector<float>& rows, int64_t k, int64_t p) {
  RefBank bank{std::vector<float>(static_cast<size_t>(k * p)),
               std::vector<double>(static_cast<size_t>(k)),
               std::vector<float>(static_cast<size_t>(k)), k, p};
  for (int64_t j = 0; j < k; ++j) {
    float* c = bank.centered.data() + j * p;
    bank.mean[static_cast<size_t>(j)] = RefCenter(rows.data() + j * p, p, c);
    bank.var[static_cast<size_t>(j)] = simd::Kernels().dot(c, c, p);
  }
  return bank;
}

void RefNearestPrototypes(const float* rows, int64_t n, const RefBank& bank,
                          float alpha, simd::RowPrep prep, int64_t* idx,
                          float* dist) {
  const int64_t k = bank.k, p = bank.p;
  const auto dot = simd::Kernels().dot;
  std::vector<float> z(static_cast<size_t>(p)), t(static_cast<size_t>(p));
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(z.data(), rows + i * p, static_cast<size_t>(p) * sizeof(float));
    if (prep != simd::RowPrep::kNone) {
      double mean = 0;
      for (int64_t d = 0; d < p; ++d) mean += z[d];
      mean /= p;
      double var = 0;
      for (int64_t d = 0; d < p; ++d) var += (z[d] - mean) * (z[d] - mean);
      const float inv_std =
          1.0f / (static_cast<float>(std::sqrt(var / p)) + 1e-4f);
      for (int64_t d = 0; d < p; ++d) {
        z[d] = (z[d] - static_cast<float>(mean)) * inv_std;
      }
    }
    if (prep == simd::RowPrep::kZNormalizeInt8) {
      float amax = 0.0f;
      for (int64_t d = 0; d < p; ++d) amax = std::max(amax, std::fabs(z[d]));
      const float tscale = amax > 0.0f ? amax / 127.0f : 1.0f;
      for (int64_t d = 0; d < p; ++d) {
        z[d] = tscale * static_cast<float>(std::lrintf(z[d] / tscale));
      }
    }
    const double m_t = RefCenter(z.data(), p, t.data());
    const float var_t = dot(t.data(), t.data(), p);
    float best = std::numeric_limits<float>::max();
    int64_t best_j = 0;
    for (int64_t j = 0; j < k; ++j) {
      const size_t sj = static_cast<size_t>(j);
      const float var_c = bank.var[sj];
      const float x = dot(t.data(), bank.centered.data() + j * p, p);
      const double dm = m_t - bank.mean[sj];
      float d = std::max(var_t + var_c - 2.0f * x, 0.0f) +
                static_cast<float>(static_cast<double>(p) * dm * dm);
      if (alpha != 0.0f) {
        float corr = 0.0f;
        if (var_t >= 1e-12f && var_c >= 1e-12f) {
          corr = x / std::sqrt(var_t * var_c);
        }
        d += alpha * (1.0f - corr);
      }
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    idx[i] = best_j;
    dist[i] = best;
  }
}

// A bank with a duplicated row (ties go to the lower index) and, from
// k = 3, a constant row (its correlation term is 0).
std::vector<float> TestPrototypes(int64_t k, int64_t p, uint32_t seed) {
  std::vector<float> protos = TestVec(k * p, seed, -2.0f, 2.0f);
  if (k >= 2) {
    std::copy_n(protos.begin(), p, protos.begin() + (k - 1) * p);
  }
  if (k >= 3) std::fill_n(protos.begin() + p, p, 0.75f);
  return protos;
}

// Rows cycling through five kinds: random, far from zero mean, constant,
// equal to a prototype, and an affine copy of a prototype.
std::vector<float> TestRows(int64_t n, int64_t p,
                            const std::vector<float>& protos, int64_t k,
                            uint32_t seed) {
  std::vector<float> rows = TestVec(n * p, seed);
  for (int64_t i = 0; i < n; ++i) {
    float* row = rows.data() + i * p;
    const float* proto = protos.data() + (i % k) * p;
    switch (i % 5) {
      case 1:
        for (int64_t d = 0; d < p; ++d) row[d] += 1000.0f;
        break;
      case 2:
        std::fill_n(row, p, -3.25f);
        break;
      case 3:
        std::copy_n(proto, p, row);
        break;
      case 4:
        for (int64_t d = 0; d < p; ++d) row[d] = 2.5f * proto[d] - 40.0f;
        break;
      default:
        break;
    }
  }
  return rows;
}

const simd::RowPrep kPreps[] = {simd::RowPrep::kNone,
                                simd::RowPrep::kZNormalize,
                                simd::RowPrep::kZNormalizeInt8};

// Runs the kernel of `backend` and the reference on one case and expects
// byte-identical indices and distances.
void ExpectNearestMatchesReference(simd::Backend backend, int64_t n,
                                   int64_t k, int64_t p, float alpha,
                                   simd::RowPrep prep) {
  const std::vector<float> protos =
      TestPrototypes(k, p, static_cast<uint32_t>(k * 131 + p));
  const std::vector<float> rows =
      TestRows(n, p, protos, k, static_cast<uint32_t>(n * 7 + p));
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  const RefBank bank = MakeRefBank(protos, k, p);
  std::vector<int64_t> ref_idx(static_cast<size_t>(n), -1);
  std::vector<float> ref_dist(static_cast<size_t>(n), -1.0f);
  RefNearestPrototypes(rows.data(), n, bank, alpha, prep, ref_idx.data(),
                       ref_dist.data());
  ASSERT_TRUE(simd::SetBackend(backend));
  std::vector<int64_t> idx(static_cast<size_t>(n), -1);
  std::vector<float> dist(static_cast<size_t>(n), -1.0f);
  simd::Kernels().nearest_prototypes(rows.data(), n, bank.View(), alpha, prep,
                                     idx.data(), dist.data());
  const std::string what = std::string(simd::BackendName()) +
                           " n=" + std::to_string(n) +
                           " k=" + std::to_string(k) +
                           " p=" + std::to_string(p) +
                           " alpha=" + std::to_string(alpha) +
                           " prep=" + std::to_string(static_cast<int>(prep));
  ASSERT_EQ(0, std::memcmp(idx.data(), ref_idx.data(),
                           idx.size() * sizeof(int64_t)))
      << what << ": indices differ from the pair-at-a-time search";
  ASSERT_EQ(0, std::memcmp(dist.data(), ref_dist.data(),
                           dist.size() * sizeof(float)))
      << what << ": distances differ from the pair-at-a-time search";
}

// Every case on one backend: n in {1, 7, 8, 9} crosses the 8-row block
// edge for k in {1..17, 33} and p in {2..33}; n = 513 (64 full blocks and
// a ragged one) runs on a coarser k x p grid.
void ExpectNearestMatchesReferenceEverywhere(simd::Backend backend) {
  std::vector<int64_t> ks;
  for (int64_t k = 1; k <= 17; ++k) ks.push_back(k);
  ks.push_back(33);
  for (float alpha : {0.0f, 0.2f}) {
    for (simd::RowPrep prep : kPreps) {
      for (int64_t k : ks) {
        for (int64_t p = 2; p <= 33; ++p) {
          for (int64_t n : {1, 7, 8, 9}) {
            ExpectNearestMatchesReference(backend, n, k, p, alpha, prep);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
      for (int64_t k : {1, 2, 8, 16, 17, 33}) {
        for (int64_t p : {2, 7, 8, 9, 16, 24, 33}) {
          ExpectNearestMatchesReference(backend, 513, k, p, alpha, prep);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(SimdNearestPrototypesTest, ScalarMatchesPairAtATimeSearch) {
  ExpectNearestMatchesReferenceEverywhere(simd::Backend::kScalar);
  simd::ReinitFromEnv();
}

TEST_F(SimdBitIdentityTest, NearestPrototypesMatchesPairAtATimeSearch) {
  ExpectNearestMatchesReferenceEverywhere(simd::Backend::kAvx2);
}

// Global operator new / delete that count allocations while armed.
std::atomic<int64_t> g_news{0};
std::atomic<bool> g_count_news{false};

}  // namespace
}  // namespace focus

// noinline: inlined into this file's callers, GCC would pair the new
// expression with free() and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (focus::g_count_news.load(std::memory_order_relaxed)) {
    focus::g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

namespace focus {
namespace {

// The search keeps its block on the stack: 100 calls allocate nothing,
// on either backend and in every row preparation.
TEST(SimdNearestPrototypesTest, AllocatesNothing) {
  const int64_t n = 513, k = 16, p = 16;
  const std::vector<float> protos = TestPrototypes(k, p, 5);
  const std::vector<float> rows = TestRows(n, p, protos, k, 6);
  const RefBank bank = MakeRefBank(protos, k, p);
  std::vector<int64_t> idx(static_cast<size_t>(n));
  std::vector<float> dist(static_cast<size_t>(n));
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::Avx2Available()) backends.push_back(simd::Backend::kAvx2);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::SetBackend(backend));
    const simd::KernelTable& kt = simd::Kernels();
    g_news.store(0);
    g_count_news.store(true);
    for (int call = 0; call < 100; ++call) {
      kt.nearest_prototypes(rows.data(), n, bank.View(), 0.2f,
                            kPreps[call % 3], idx.data(), dist.data());
    }
    g_count_news.store(false);
    EXPECT_EQ(0, g_news.load()) << kt.name;
  }
  simd::ReinitFromEnv();
}

// --- dispatch ---------------------------------------------------------------

TEST(SimdDispatchTest, EnvSelectsBackend) {
  // Save/restore must distinguish unset from empty, which the hardened
  // GetEnvOr helper deliberately hides behind its fallback.
  // NOLINT(focus-raw-getenv): env save/restore needs unset-vs-set
  const char* saved = std::getenv("FOCUS_SIMD");
  const std::string restore = saved != nullptr ? saved : "";

  setenv("FOCUS_SIMD", "scalar", 1);
  simd::ReinitFromEnv();
  EXPECT_EQ(simd::Backend::kScalar, simd::ActiveBackend());
  EXPECT_STREQ("scalar", simd::BackendName());

  setenv("FOCUS_SIMD", "avx2", 1);
  simd::ReinitFromEnv();
  if (simd::Avx2Available()) {
    EXPECT_EQ(simd::Backend::kAvx2, simd::ActiveBackend());
    EXPECT_STREQ("avx2", simd::BackendName());
  } else {
    // Unavailable: warn and fall back to scalar rather than crash.
    EXPECT_EQ(simd::Backend::kScalar, simd::ActiveBackend());
  }

  setenv("FOCUS_SIMD", "auto", 1);
  simd::ReinitFromEnv();
  EXPECT_EQ(simd::Avx2Available() ? simd::Backend::kAvx2
                                  : simd::Backend::kScalar,
            simd::ActiveBackend());

  // Garbage value: documented to warn and fall back to auto.
  setenv("FOCUS_SIMD", "sse9", 1);
  simd::ReinitFromEnv();
  EXPECT_EQ(simd::Avx2Available() ? simd::Backend::kAvx2
                                  : simd::Backend::kScalar,
            simd::ActiveBackend());

  if (saved != nullptr) {
    setenv("FOCUS_SIMD", restore.c_str(), 1);
  } else {
    unsetenv("FOCUS_SIMD");
  }
  simd::ReinitFromEnv();
}

TEST(SimdDispatchTest, SetBackendOverridesAndReinitClears) {
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  EXPECT_EQ(simd::Backend::kScalar, simd::ActiveBackend());
  if (!simd::Avx2Available()) {
    EXPECT_FALSE(simd::SetBackend(simd::Backend::kAvx2));
    EXPECT_EQ(simd::Backend::kScalar, simd::ActiveBackend());
  } else {
    EXPECT_TRUE(simd::SetBackend(simd::Backend::kAvx2));
    EXPECT_EQ(simd::Backend::kAvx2, simd::ActiveBackend());
  }
  simd::ReinitFromEnv();
}

}  // namespace
}  // namespace focus
