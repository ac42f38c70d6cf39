// Tests for missing-value handling (data/impute).
#include <limits>

#include <gtest/gtest.h>

#include "data/impute.h"

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

}  // namespace
}  // namespace focus
