// int8proto inference contracts (DESIGN §13):
//   * int8 prototype bank — freeze-time quantization statistics agree
//     with a brute-force dequantized reference; assignments are
//     backend-invariant and agree with f32 on separated prototypes.
//   * assignment only — int8proto changes which prototype a token is
//     assigned and nothing else: when every assignment agrees with f32,
//     the eager and planned forecasts are the f32 forecast, bit for bit.
//   * plan pinning — ExecutionPlan::Matches() pins the precision a plan
//     was captured at, so a mode switch recaptures instead of replaying
//     the other mode's assignment sweep.
//   * serving — per-tenant engines serve bit-identically to the eager
//     forward at their own precision.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/focus_model.h"
#include "core/offline.h"
#include "core/proto_attn.h"
#include "plan/plan.h"
#include "serve/engine.h"
#include "tensor/ops.h"
#include "tensor/precision.h"
#include "tensor/simd/vec.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace focus {
namespace {

void ExpectSameBytes(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

TEST(PrecisionModeTest, GuardRestoresAndNamesRoundTrip) {
  // Ambient mode comes from FOCUS_PRECISION (check.sh's precision leg
  // sweeps it), so assert restoration, not a specific starting mode.
  const Precision ambient = PrecisionMode::Get();
  {
    PrecisionGuard guard(Precision::kF32);
    EXPECT_EQ(PrecisionMode::Get(), Precision::kF32);
    {
      PrecisionGuard inner(Precision::kInt8Proto);
      EXPECT_STREQ("int8proto", PrecisionName(PrecisionMode::Get()));
    }
    EXPECT_EQ(PrecisionMode::Get(), Precision::kF32);
  }
  EXPECT_EQ(PrecisionMode::Get(), ambient);
  EXPECT_STREQ("f32", PrecisionName(Precision::kF32));
}

// --- int8 prototype bank ----------------------------------------------------

Tensor MakeSeparatedPrototypes(int64_t k, int64_t p, uint64_t seed) {
  // Orthogonal-ish spike patterns: far apart in both Euclidean and
  // correlation distance, so the nearest prototype is unambiguous.
  Tensor protos = Tensor::Zeros({k, p});
  Rng rng(seed);
  Tensor noise = Tensor::Randn({k, p}, rng);
  for (int64_t j = 0; j < k; ++j) {
    for (int64_t d = 0; d < p; ++d) {
      float v = 0.05f * noise.data()[j * p + d];
      if (d % k == j) v += (j % 2 == 0) ? 3.0f : -3.0f;
      protos.data()[j * p + d] = v;
    }
  }
  return protos;
}

TEST(QuantBankTest, StatisticsMatchDequantizedReference) {
  Tensor protos = MakeSeparatedPrototypes(6, 16, 21);
  const core::QuantizedPrototypeBank bank =
      core::QuantizePrototypeBank(protos);
  ASSERT_EQ(bank.k, 6);
  ASSERT_EQ(bank.p, 16);
  for (int64_t j = 0; j < bank.k; ++j) {
    const size_t sj = static_cast<size_t>(j);
    int32_t row_sum_q = 0;
    double sq = 0.0, sum = 0.0;
    float max_err = 0.0f;
    for (int64_t d = 0; d < bank.p; ++d) {
      const int8_t q = bank.q[static_cast<size_t>(j * bank.p + d)];
      const float deq =
          bank.scale[sj] * static_cast<float>(q - bank.zero_point[sj]);
      const float orig = protos.data()[j * bank.p + d];
      max_err = std::max(max_err, std::fabs(deq - orig));
      row_sum_q += q;
      sq += static_cast<double>(deq) * deq;
      sum += deq;
    }
    // Affine quantization error is bounded by half a step.
    EXPECT_LE(max_err, 0.5f * bank.scale[sj] + 1e-6f) << "row " << j;
    EXPECT_EQ(bank.row_sum_q[sj], row_sum_q) << "row " << j;
    const float mean = static_cast<float>(sum) / bank.p;
    EXPECT_FLOAT_EQ(bank.sq_norm[sj], static_cast<float>(sq));
    EXPECT_FLOAT_EQ(bank.mean[sj], mean);
    EXPECT_FLOAT_EQ(bank.var[sj],
                    static_cast<float>(sq) - bank.p * mean * mean);
  }
}

TEST(QuantBankTest, ConstantRowQuantizesExactly) {
  Tensor protos = Tensor::Full({2, 8}, 1.25f);
  const core::QuantizedPrototypeBank bank =
      core::QuantizePrototypeBank(protos);
  for (int64_t j = 0; j < 2; ++j) {
    const size_t sj = static_cast<size_t>(j);
    EXPECT_EQ(bank.zero_point[sj], 0);
    for (int64_t d = 0; d < 8; ++d) {
      const int8_t q = bank.q[static_cast<size_t>(j * 8 + d)];
      EXPECT_NEAR(bank.scale[sj] * static_cast<float>(q), 1.25f, 1e-2f);
    }
  }
}

std::unique_ptr<core::ProtoAttn> MakeAttn(const Tensor& protos,
                                          uint64_t seed) {
  Rng rng(seed);
  auto embed =
      std::make_shared<nn::Linear>(protos.size(1), /*d_model=*/16, rng);
  return std::make_unique<core::ProtoAttn>(protos, embed, 16, 0.2f, rng);
}

TEST(Int8AssignTest, AgreesWithF32OnSeparatedPrototypes) {
  const int64_t k = 6, p = 16;
  Tensor protos = MakeSeparatedPrototypes(k, p, 22);
  auto attn = MakeAttn(protos, 23);
  // Tokens are noisy copies of the prototypes: the argmin is clear-cut,
  // so requantization error cannot flip it.
  Tensor tokens = Tensor::Zeros({2, k, p});
  Rng rng(24);
  Tensor noise = Tensor::Randn({2, k, p}, rng);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t j = 0; j < k; ++j) {
      for (int64_t d = 0; d < p; ++d) {
        tokens.data()[(b * k + j) * p + d] =
            protos.data()[j * p + d] +
            0.02f * noise.data()[(b * k + j) * p + d];
      }
    }
  }
  InferenceModeGuard inference;
  std::vector<int64_t> f32_assign;
  {
    PrecisionGuard f32(Precision::kF32);
    f32_assign = attn->AssignTokens(tokens);
  }
  PrecisionGuard guard(Precision::kInt8Proto);
  const std::vector<int64_t> int8_assign = attn->AssignTokens(tokens);
  ASSERT_EQ(f32_assign.size(), int8_assign.size());
  for (size_t i = 0; i < f32_assign.size(); ++i) {
    EXPECT_EQ(f32_assign[i], static_cast<int64_t>(i % k)) << "token " << i;
    EXPECT_EQ(int8_assign[i], f32_assign[i]) << "token " << i;
  }
}

TEST(Int8AssignTest, BackendInvariant) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  Tensor protos = MakeSeparatedPrototypes(8, 16, 25);
  auto attn = MakeAttn(protos, 26);
  Rng rng(27);
  Tensor tokens = Tensor::Randn({3, 10, 16}, rng);
  InferenceModeGuard inference;
  PrecisionGuard guard(Precision::kInt8Proto);
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  const std::vector<int64_t> scalar_assign = attn->AssignTokens(tokens);
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kAvx2));
  const std::vector<int64_t> avx2_assign = attn->AssignTokens(tokens);
  simd::ReinitFromEnv();
  EXPECT_EQ(scalar_assign, avx2_assign);
}

// --- end-to-end + serving ---------------------------------------------------

constexpr int64_t kEntities = 3;
constexpr int64_t kLookback = 32;
constexpr int64_t kHorizon = 8;

constexpr int64_t kPatchLen = 8;

std::unique_ptr<core::FocusModel> ServableModel(const Tensor& protos) {
  core::FocusConfig cfg;
  cfg.lookback = kLookback;
  cfg.horizon = kHorizon;
  cfg.num_entities = kEntities;
  cfg.patch_len = kPatchLen;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 31;
  auto model = std::make_unique<core::FocusModel>(cfg, protos);
  model->SetTraining(false);
  return model;
}

std::unique_ptr<core::FocusModel> ServableModel() {
  Rng rng(37);
  return ServableModel(Tensor::Randn({4, kPatchLen}, rng));
}

Tensor EagerReference(core::FocusModel& model, const Tensor& window,
                      Precision precision) {
  InferenceModeGuard inference;
  PrecisionGuard guard(precision);
  Tensor out = model.Forward(window.Reshape({1, kEntities, kLookback}));
  Tensor ref = Tensor::Empty({kEntities, kHorizon});
  std::memcpy(ref.data(), out.data(),
              static_cast<size_t>(kEntities * kHorizon) * sizeof(float));
  return ref;
}

TEST(QuantServeTest, PerTenantPrecisionBitIdenticalToEager) {
  auto model = ServableModel();
  Rng rng(41);
  Tensor window = Tensor::Randn({kEntities, kLookback}, rng);
  const Tensor f32_ref = EagerReference(*model, window, Precision::kF32);
  const Tensor int8_ref =
      EagerReference(*model, window, Precision::kInt8Proto);
  const struct {
    Precision precision;
    const Tensor* ref;
    const char* what;
  } kTenants[] = {
      {Precision::kF32, &f32_ref, "f32 tenant"},
      {Precision::kInt8Proto, &int8_ref, "int8proto tenant"},
  };
  for (const auto& tenant : kTenants) {
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.precision = tenant.precision;
    serve::ForecastEngine engine(model.get(), kEntities, kLookback, opts);
    EXPECT_EQ(engine.precision(), tenant.precision);
    Tensor served = engine.Forecast(window);
    ExpectSameBytes(served, *tenant.ref, tenant.what);
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.planned_batches, 1) << tenant.what;
    engine.Shutdown();
  }
}

// A window whose every patch is a noisy copy of one separated
// prototype: each token's nearest prototype is clear-cut, so int8
// requantization cannot flip any assignment.
Tensor PrototypeWindow(const Tensor& protos, uint64_t seed) {
  const int64_t k = protos.size(0);
  Tensor window = Tensor::Zeros({kEntities, kLookback});
  Rng rng(seed);
  Tensor noise = Tensor::Randn({kEntities, kLookback}, rng);
  for (int64_t e = 0; e < kEntities; ++e) {
    for (int64_t t = 0; t < kLookback; ++t) {
      const int64_t j = (e + t / kPatchLen) % k;
      window.data()[e * kLookback + t] =
          protos.data()[j * kPatchLen + t % kPatchLen] +
          0.02f * noise.data()[e * kLookback + t];
    }
  }
  return window;
}

TEST(Int8ProtoTest, ForwardMatchesF32WhenAssignmentsAgree) {
  const Tensor protos = MakeSeparatedPrototypes(4, kPatchLen, 51);
  auto model = ServableModel(protos);
  const Tensor window = PrototypeWindow(protos, 52);
  const Tensor x = window.Reshape({1, kEntities, kLookback});

  // Premise: the model's two assignment sweeps agree on every token
  // (z-normalization makes the sweep blind to the instance norm).
  {
    const core::ProtoAttn* attn = model->temporal_proto_attn();
    ASSERT_NE(attn, nullptr);
    const Tensor tokens =
        window.Reshape({1, kEntities * kLookback / kPatchLen, kPatchLen});
    InferenceModeGuard inference;
    std::vector<int64_t> f32_assign;
    {
      PrecisionGuard f32(Precision::kF32);
      f32_assign = attn->AssignTokens(tokens);
    }
    PrecisionGuard int8(Precision::kInt8Proto);
    ASSERT_EQ(f32_assign, attn->AssignTokens(tokens));
  }

  // int8proto touches only the assignment, so every matmul runs on the
  // f32 weights and the forecast is the f32 forecast, bit for bit.
  const Tensor f32_ref = EagerReference(*model, window, Precision::kF32);
  ExpectSameBytes(EagerReference(*model, window, Precision::kInt8Proto),
                  f32_ref, "eager int8proto vs f32");
  PrecisionGuard guard(Precision::kInt8Proto);
  auto plan = plan::ExecutionPlan::Capture(
      [&](const Tensor& in) { return model->Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  ExpectSameBytes(plan->Run(x).Reshape({kEntities, kHorizon}), f32_ref,
                  "planned int8proto vs f32");
}

TEST(Int8ProtoTest, MatchesPinsCapturePrecision) {
  auto model = ServableModel();
  Rng rng(61);
  const Tensor x = Tensor::Randn({1, kEntities, kLookback}, rng);
  const auto capture = [&](Precision precision) {
    PrecisionGuard guard(precision);
    auto plan = plan::ExecutionPlan::Capture(
        [&](const Tensor& in) { return model->Forward(in); }, x);
    EXPECT_NE(plan, nullptr);
    if (plan != nullptr) {
      EXPECT_TRUE(plan->Matches(x));
    }
    return plan;
  };
  // Each plan refuses to replay under the other mode (PlannedForecaster
  // then drops it and recaptures): the ProtoAssign closures differ.
  const auto int8_plan = capture(Precision::kInt8Proto);
  const auto f32_plan = capture(Precision::kF32);
  ASSERT_NE(int8_plan, nullptr);
  ASSERT_NE(f32_plan, nullptr);
  {
    PrecisionGuard guard(Precision::kF32);
    EXPECT_FALSE(int8_plan->Matches(x));
    EXPECT_TRUE(f32_plan->Matches(x));
  }
  {
    PrecisionGuard guard(Precision::kInt8Proto);
    EXPECT_FALSE(f32_plan->Matches(x));
    EXPECT_TRUE(int8_plan->Matches(x));
  }
}

}  // namespace
}  // namespace focus
