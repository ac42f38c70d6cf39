// Integration tests for the experiment harness: profiles, dataset
// preparation, window plumbing, the model zoo, end-to-end train+evaluate,
// and the ASCII plot helpers.
#include <cstdlib>

#include <gtest/gtest.h>

#include "harness/ascii_plot.h"
#include "harness/experiments.h"

namespace focus {
namespace {

harness::ExperimentProfile TinyProfile() {
  auto profile = harness::MakeProfile(data::Profile::kQuick);
  profile.train_steps = 4;
  profile.batch_size = 2;
  profile.eval_stride = 16;
  profile.lookback = 96;
  profile.d_model = 16;
  profile.conv_channels = 8;
  profile.num_prototypes = 6;
  return profile;
}

TEST(HarnessTest, ProfileEnvOverrides) {
  setenv("FOCUS_TRAIN_STEPS", "123", 1);
  auto p = harness::MakeProfile(data::Profile::kQuick);
  EXPECT_EQ(p.train_steps, 123);
  unsetenv("FOCUS_TRAIN_STEPS");
  auto q = harness::MakeProfile(data::Profile::kQuick);
  EXPECT_EQ(q.train_steps, 300);
  auto full = harness::MakeProfile(data::Profile::kFull);
  EXPECT_EQ(full.lookback, 512);
}

TEST(HarnessTest, ReadoutQueriesMatchPaperRule) {
  EXPECT_EQ(harness::ReadoutQueriesFor(96), 6);    // paper: 6
  EXPECT_EQ(harness::ReadoutQueriesFor(336), 21);  // paper: 21
  EXPECT_EQ(harness::ReadoutQueriesFor(1), 2);     // floor of 2
}

TEST(HarnessTest, FocusPatchLenAlignsWithDailyPeriod) {
  auto profile = harness::MakeProfile(data::Profile::kQuick);
  EXPECT_EQ(harness::FocusPatchLenFor("Traffic", profile), 24);
  EXPECT_EQ(harness::FocusPatchLenFor("ETTh1", profile), 24);
  EXPECT_EQ(harness::FocusPatchLenFor("Weather", profile), 12);
  EXPECT_EQ(harness::FocusPatchLenFor("PEMS08", profile), 24);
  EXPECT_EQ(harness::FocusPatchLenFor("ETTm1", profile),
            profile.patch_len);
  EXPECT_EQ(harness::FocusPrototypesFor("PEMS08", profile), 32);
  EXPECT_EQ(harness::FocusPrototypesFor("Weather", profile),
            profile.num_prototypes);
}

TEST(HarnessTest, PrepareDatasetNormalizesTrainRegion) {
  auto profile = TinyProfile();
  auto data = harness::PrepareDataset("ETTh1", profile);
  // Train-region mean of each entity approximately zero after z-scoring.
  const int64_t t = data.normalized.size(1);
  for (int64_t e = 0; e < data.normalized.size(0); ++e) {
    double mean = 0;
    for (int64_t i = 0; i < data.splits.train_end; ++i) {
      mean += data.normalized.At({e, i});
    }
    EXPECT_NEAR(mean / data.splits.train_end, 0.0, 1e-3);
  }
  EXPECT_EQ(t, data.dataset.num_steps());
}

TEST(HarnessTest, WindowRangesCoverExpectedRegions) {
  auto profile = TinyProfile();
  auto data = harness::PrepareDataset("ETTh1", profile);
  const int64_t L = 96, H = 24;
  auto train = harness::TrainWindows(data, L, H);
  auto val = harness::ValWindows(data, L, H);
  auto test = harness::TestWindows(data, L, H);
  EXPECT_GT(train.NumWindows(), 0);
  EXPECT_GT(val.NumWindows(), 0);
  EXPECT_GT(test.NumWindows(), 0);
  // Every forecast step of a test window lies inside the test region:
  // first test window's label starts exactly at val_end.
  auto first = test.GetWindow(0);
  EXPECT_EQ(first.y.At({0, 0, 0}),
            data.normalized.At({0, data.splits.val_end}));
}

TEST(HarnessTest, ModelZooBuildsAllEightModels) {
  auto profile = TinyProfile();
  auto data = harness::PrepareDataset("PEMS08", profile);
  auto names = harness::ModelZooNames();
  EXPECT_EQ(names.size(), 8u);
  Rng rng(1);
  Tensor x = Tensor::Randn({1, data.dataset.num_entities(), 96}, rng);
  for (const auto& name : names) {
    auto model = harness::BuildModel(name, data, 96, 24, profile);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->Forward(x).shape(),
              (Shape{1, data.dataset.num_entities(), 24}))
        << name;
  }
}

TEST(HarnessTest, TrainAndEvaluateEndToEnd) {
  auto profile = TinyProfile();
  auto data = harness::PrepareDataset("ETTh1", profile);
  auto model = harness::BuildModel("DLinear", data, 96, 24, profile);
  auto outcome = harness::TrainAndEvaluate(*model, data, 96, 24, profile);
  EXPECT_EQ(outcome.train.steps, profile.train_steps);
  EXPECT_GT(outcome.test.count, 0);
  EXPECT_TRUE(std::isfinite(outcome.test.mse));
}

TEST(HarnessTest, TrainingIsDeterministicPerSeed) {
  auto profile = TinyProfile();
  auto data = harness::PrepareDataset("ETTh1", profile);
  auto run = [&] {
    auto model = harness::BuildModel("FOCUS", data, 96, 24, profile, 7);
    return harness::TrainAndEvaluate(*model, data, 96, 24, profile, 7)
        .test.mse;
  };
  EXPECT_EQ(run(), run());
}

TEST(HarnessTest, EarlyStoppingRestoresBestCheckpoint) {
  auto profile = TinyProfile();
  auto data = harness::PrepareDataset("ETTh1", profile);
  auto model = harness::BuildModel("DLinear", data, 96, 24, profile);
  auto train = harness::TrainWindows(data, 96, 24);
  auto val = harness::ValWindows(data, 96, 24);

  harness::TrainConfig tc;
  tc.max_steps = 60;
  tc.batch_size = 4;
  tc.lr = 1e-2f;
  tc.val = &val;
  tc.eval_every = 10;
  tc.patience = 2;
  auto result = harness::TrainModel(*model, train, tc);
  ASSERT_GT(result.best_val_mse, 0.0);
  // The restored parameters must reproduce the recorded best val MSE.
  auto val_metrics = harness::EvaluateModel(*model, val, 4, 4);
  EXPECT_NEAR(val_metrics.mse, result.best_val_mse, 1e-6);
}

TEST(AsciiPlotTest, ChartContainsGlyphsAndLegend) {
  std::vector<double> a = {0, 1, 2, 3, 2, 1, 0};
  std::vector<double> b = {3, 2, 1, 0, 1, 2, 3};
  std::string chart = harness::AsciiChart({a, b}, {"up", "down"}, 40, 8);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('+'), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
  EXPECT_NE(chart.find("up"), std::string::npos);
}

TEST(AsciiPlotTest, ChartHandlesConstantSeries) {
  std::vector<double> flat = {1, 1, 1, 1};
  std::string chart = harness::AsciiChart({flat}, {"flat"}, 20, 5);
  EXPECT_FALSE(chart.empty());
}

TEST(AsciiPlotTest, HeatmapUsesDensityRamp) {
  std::vector<double> v = {0, 0.5, 1.0, 0.2, 0.7, 0.9};
  std::string map = harness::AsciiHeatmap(v, 2, 3);
  EXPECT_NE(map.find('@'), std::string::npos);  // max value
  EXPECT_NE(map.find(' '), std::string::npos);  // min value
}

}  // namespace
}  // namespace focus
