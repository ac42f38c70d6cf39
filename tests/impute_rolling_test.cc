// Tests for missing-value handling and rolling-origin evaluation.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baselines/dlinear.h"
#include "data/generator.h"
#include "data/impute.h"
#include "harness/rolling.h"

namespace focus {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

TEST(ImputeTest, ScanGapsCountsRunsAndEntities) {
  Tensor v = Tensor::FromVector(
      {2, 6}, {1, kNan, kNan, 4, kNan, 6, 1, 2, 3, 4, 5, 6});
  auto report = data::ScanGaps(v);
  EXPECT_EQ(report.missing_values, 3);
  EXPECT_EQ(report.longest_gap, 2);
  EXPECT_EQ(report.affected_entities, 1);
}

TEST(ImputeTest, ForwardFillBasics) {
  Tensor v = Tensor::FromVector({1, 6}, {kNan, 2, kNan, kNan, 5, kNan});
  EXPECT_EQ(data::ForwardFillImpute(&v), 4);
  EXPECT_EQ(v.At({0, 0}), 2.0f);  // leading NaN back-filled
  EXPECT_EQ(v.At({0, 2}), 2.0f);
  EXPECT_EQ(v.At({0, 3}), 2.0f);
  EXPECT_EQ(v.At({0, 5}), 5.0f);  // trailing NaN forward-filled
}

TEST(ImputeTest, ForwardFillAllNanRowZeroFills) {
  Tensor v = Tensor::FromVector({1, 3}, {kNan, kNan, kNan});
  EXPECT_EQ(data::ForwardFillImpute(&v), 3);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(v.At({0, i}), 0.0f);
}

TEST(ImputeTest, LinearInterpolationIsExactOnRamps) {
  Tensor v = Tensor::FromVector({1, 5}, {0, kNan, kNan, kNan, 4});
  EXPECT_EQ(data::LinearInterpolateImpute(&v), 3);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(v.At({0, i}), static_cast<float>(i), 1e-5);
  }
}

TEST(ImputeTest, LinearInterpolationEdgesFallBackToNearest) {
  Tensor v = Tensor::FromVector({1, 5}, {kNan, 3, kNan, 7, kNan});
  EXPECT_EQ(data::LinearInterpolateImpute(&v), 3);
  EXPECT_EQ(v.At({0, 0}), 3.0f);
  EXPECT_NEAR(v.At({0, 2}), 5.0f, 1e-5);
  EXPECT_EQ(v.At({0, 4}), 7.0f);
}

TEST(ImputeTest, NoNansIsNoOp) {
  Tensor v = Tensor::FromVector({1, 4}, {1, 2, 3, 4});
  Tensor copy = v.Clone();
  EXPECT_EQ(data::ForwardFillImpute(&v), 0);
  EXPECT_EQ(data::LinearInterpolateImpute(&v), 0);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(v.At({0, i}), copy.At({0, i}));
}

TEST(RollingTest, FoldsAdvanceAndAggregate) {
  data::GeneratorConfig gen;
  gen.num_entities = 3;
  gen.num_steps = 1200;
  gen.steps_per_day = 24;
  gen.seed = 5;
  Tensor values = data::Generate(gen).values;

  harness::RollingConfig cfg;
  cfg.lookback = 48;
  cfg.horizon = 12;
  cfg.num_folds = 3;
  cfg.fold_span = 100;
  cfg.train.max_steps = 15;
  cfg.train.batch_size = 4;
  cfg.train.lr = 1e-2f;

  auto result = harness::RollingOriginEvaluate(values, cfg, [&] {
    baselines::DLinearConfig dl;
    dl.lookback = 48;
    dl.horizon = 12;
    return std::make_unique<baselines::DLinear>(dl);
  });
  ASSERT_EQ(result.folds.size(), 3u);
  EXPECT_EQ(result.folds[0].origin, 1200 - 300);
  EXPECT_EQ(result.folds[1].origin, 1200 - 200);
  EXPECT_EQ(result.folds[2].origin, 1200 - 100);
  for (const auto& fold : result.folds) {
    EXPECT_TRUE(std::isfinite(fold.metrics.mse));
    EXPECT_GT(fold.metrics.count, 0);
  }
  // Aggregate is the count-weighted mean of the folds.
  double expect_mse = 0;
  int64_t total = 0;
  for (const auto& fold : result.folds) {
    expect_mse += fold.metrics.mse * fold.metrics.count;
    total += fold.metrics.count;
  }
  EXPECT_NEAR(result.aggregate.mse, expect_mse / total, 1e-9);
  EXPECT_EQ(result.aggregate.count, total);
}

}  // namespace
}  // namespace focus
