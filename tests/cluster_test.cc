// Tests for offline segment clustering: Pearson properties, the composite
// Eq. 6 distance (including the paper's Example 2), extraction, k-means++
// convergence, the Fig. 8 Rec-Only vs Rec+Corr ablation hook, prototype
// persistence and series approximation (Fig. 11).
#include "cluster/segment_clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "tests/test_util.h"

namespace focus {
namespace {

using cluster::ClusteringConfig;
using cluster::CompositeDistance;
using cluster::ExtractSegments;
using cluster::PearsonCorrelation;
using cluster::SegmentClustering;

TEST(PearsonTest, KnownValues) {
  const float a[] = {1, 2, 3};
  const float b[] = {2, 4, 6};       // perfectly correlated
  const float c[] = {3, 2, 1};       // perfectly anti-correlated
  const float flat[] = {5, 5, 5};    // constant
  EXPECT_NEAR(PearsonCorrelation(a, b, 3), 1.0f, 1e-6);
  EXPECT_NEAR(PearsonCorrelation(a, c, 3), -1.0f, 1e-6);
  EXPECT_NEAR(PearsonCorrelation(a, flat, 3), 0.0f, 1e-6);
  EXPECT_NEAR(PearsonCorrelation(a, a, 3), 1.0f, 1e-6);
}

TEST(PearsonTest, InvariantToAffineTransform) {
  const float a[] = {1, 4, 2, 8, 5, 7};
  float b[6];
  for (int i = 0; i < 6; ++i) b[i] = 3.0f * a[i] - 10.0f;
  EXPECT_NEAR(PearsonCorrelation(a, b, 6), 1.0f, 1e-6);
}

TEST(CompositeDistanceTest, PaperExampleTwo) {
  // Paper Example 2: A = {9,10,11}, B = {7,10,13}, C = {11,10,9}.
  // Euclidean d(A,B) == d(A,C), but correlation makes B closer.
  const float a[] = {9, 10, 11};
  const float b[] = {7, 10, 13};
  const float c[] = {11, 10, 9};
  const float l2_ab = CompositeDistance(a, b, 3, 0.0f);
  const float l2_ac = CompositeDistance(a, c, 3, 0.0f);
  EXPECT_NEAR(l2_ab, l2_ac, 1e-5);  // indistinguishable without correlation

  const float full_ab = CompositeDistance(a, b, 3, 0.5f);
  const float full_ac = CompositeDistance(a, c, 3, 0.5f);
  EXPECT_LT(full_ab, full_ac);  // Eq. 6 separates them
  // corr(A,B)=1 adds 0; corr(A,C)=-1 adds 2*alpha.
  EXPECT_NEAR(full_ab, l2_ab, 1e-5);
  EXPECT_NEAR(full_ac, l2_ac + 0.5f * 2.0f, 1e-5);
}

TEST(ExtractSegmentsTest, ShapesAndLayout) {
  Tensor values = Tensor::Arange(24).Reshape({2, 12});
  Tensor segs = ExtractSegments(values, 4, /*normalize=*/false);
  EXPECT_EQ(segs.shape(), (Shape{6, 4}));
  // Segment 0 = entity 0 steps [0,4), segment 3 = entity 1 steps [0,4).
  EXPECT_EQ(segs.At({0, 0}), 0.0f);
  EXPECT_EQ(segs.At({2, 3}), 11.0f);
  EXPECT_EQ(segs.At({3, 0}), 12.0f);
}

TEST(ExtractSegmentsTest, DropsRemainderSteps) {
  Tensor values = Tensor::Arange(22).Reshape({2, 11});
  Tensor segs = ExtractSegments(values, 4, false);
  EXPECT_EQ(segs.shape(), (Shape{4, 4}));  // 11/4 = 2 per entity
}

TEST(ExtractSegmentsTest, NormalizationMakesShapeSpace) {
  Tensor values = Tensor::FromVector({1, 8}, {0, 1, 2, 3, 100, 102, 104, 106});
  Tensor segs = ExtractSegments(values, 4, /*normalize=*/true);
  // Both segments are increasing ramps; in shape space they are ~identical.
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_NEAR(segs.At({0, d}), segs.At({1, d}), 1e-2);
  }
}

// Builds a dataset whose segments come from `k` distinct shape families.
Tensor MakeSyntheticSegments(int64_t per_family, int64_t p, Rng& rng) {
  std::vector<std::vector<float>> families;
  for (int f = 0; f < 3; ++f) {
    std::vector<float> shape(static_cast<size_t>(p));
    for (int64_t d = 0; d < p; ++d) {
      shape[static_cast<size_t>(d)] =
          std::sin(2.0f * 3.14159f * (d + 1) * (f + 1) / p);
    }
    families.push_back(shape);
  }
  Tensor segs = Tensor::Empty({3 * per_family, p});
  for (int64_t i = 0; i < 3 * per_family; ++i) {
    const auto& fam = families[static_cast<size_t>(i % 3)];
    for (int64_t d = 0; d < p; ++d) {
      segs.data()[i * p + d] =
          fam[static_cast<size_t>(d)] +
          0.05f * static_cast<float>(rng.Gaussian());
    }
  }
  return segs;
}

TEST(SegmentClusteringTest, RecoversPlantedClusters) {
  Rng rng(1);
  Tensor segs = MakeSyntheticSegments(40, 16, rng);
  ClusteringConfig cfg;
  cfg.segment_length = 16;
  cfg.num_prototypes = 3;
  cfg.seed = 2;
  SegmentClustering clustering(cfg);
  auto result = clustering.Fit(segs);

  EXPECT_EQ(result.prototypes.shape(), (Shape{3, 16}));
  ASSERT_EQ(result.assignments.size(), 120u);
  // Segments from the same family must land in the same bucket, and the
  // three families must use three distinct buckets.
  std::set<int64_t> buckets;
  for (int family = 0; family < 3; ++family) {
    const int64_t expected = result.assignments[static_cast<size_t>(family)];
    buckets.insert(expected);
    for (int64_t i = family; i < 120; i += 3) {
      EXPECT_EQ(result.assignments[static_cast<size_t>(i)], expected)
          << "segment " << i;
    }
  }
  EXPECT_EQ(buckets.size(), 3u);
}

TEST(SegmentClusteringTest, ObjectiveDecreasesMonotonically) {
  Rng rng(3);
  Tensor segs = MakeSyntheticSegments(30, 12, rng);
  ClusteringConfig cfg;
  cfg.segment_length = 12;
  cfg.num_prototypes = 4;
  cfg.seed = 4;
  cfg.max_iters = 15;
  SegmentClustering clustering(cfg);
  auto result = clustering.Fit(segs);
  ASSERT_GE(result.objective_history.size(), 2u);
  // Overall downward trend: final objective below the first.
  EXPECT_LT(result.objective_history.back(),
            result.objective_history.front() + 1e-9);
}

TEST(SegmentClusteringTest, AssignmentIsOptimalUnderCompositeDistance) {
  Rng rng(5);
  Tensor segs = MakeSyntheticSegments(10, 8, rng);
  ClusteringConfig cfg;
  cfg.segment_length = 8;
  cfg.num_prototypes = 3;
  cfg.seed = 6;
  SegmentClustering clustering(cfg);
  auto result = clustering.Fit(segs);
  for (int64_t i = 0; i < segs.size(0); ++i) {
    const float* seg = segs.data() + i * 8;
    const int64_t assigned = result.assignments[static_cast<size_t>(i)];
    const float assigned_d = CompositeDistance(
        seg, result.prototypes.data() + assigned * 8, 8, cfg.alpha);
    for (int64_t j = 0; j < 3; ++j) {
      const float d = CompositeDistance(
          seg, result.prototypes.data() + j * 8, 8, cfg.alpha);
      EXPECT_GE(d, assigned_d - 1e-5f);
    }
  }
}

TEST(SegmentClusteringTest, AssignmentIsOptimalOnUnnormalizedSegments) {
  // Raw segments far from zero mean: a common offset of 1e3 with unit-scale
  // variation. Expanding |t - c|^2 as |t|^2 + |c|^2 - 2 t.c in f32 loses
  // most significant digits of the distance here; the centered Eq. 6
  // routine must still pick the brute-force minimum.
  Rng rng(41);
  const int64_t n = 200, k = 8, p = 16;
  const float alpha = 0.3f;
  Tensor segs = Tensor::Randn({n, p}, rng);
  Tensor protos = Tensor::Randn({k, p}, rng);
  for (Tensor* t : {&segs, &protos}) {
    for (int64_t i = 0; i < t->numel(); ++i) t->data()[i] += 1e3f;
  }
  const std::vector<int64_t> assignments =
      SegmentClustering::Assign(segs, protos, alpha);
  for (int64_t i = 0; i < n; ++i) {
    const float* seg = segs.data() + i * p;
    float best = CompositeDistance(seg, protos.data(), p, alpha);
    for (int64_t j = 1; j < k; ++j) {
      best = std::min(best,
                      CompositeDistance(seg, protos.data() + j * p, p, alpha));
    }
    const float assigned = CompositeDistance(
        seg, protos.data() + assignments[static_cast<size_t>(i)] * p, p,
        alpha);
    EXPECT_LE(assigned, best + 1e-5f * std::max(1.0f, best))
        << "segment " << i;
  }
}

TEST(SegmentClusteringTest, DeterministicPerSeed) {
  Rng rng(7);
  Tensor segs = MakeSyntheticSegments(20, 8, rng);
  ClusteringConfig cfg;
  cfg.segment_length = 8;
  cfg.num_prototypes = 3;
  cfg.seed = 8;
  auto r1 = SegmentClustering(cfg).Fit(segs);
  auto r2 = SegmentClustering(cfg).Fit(segs);
  testing::ExpectTensorNear(r1.prototypes, r2.prototypes, 0.0);
  EXPECT_EQ(r1.assignments, r2.assignments);
}

TEST(SegmentClusteringTest, RecOnlyDiffersFromRecCorr) {
  // The Fig. 8 ablation switch must actually change the fitted prototypes
  // on data where correlation matters.
  auto cfg_base = [] {
    ClusteringConfig cfg;
    cfg.segment_length = 16;
    cfg.num_prototypes = 6;
    cfg.seed = 9;
    return cfg;
  };
  data::GeneratorConfig gen;
  gen.num_entities = 6;
  gen.num_steps = 1600;
  gen.seed = 10;
  Tensor values = data::Generate(gen).values;
  Tensor segs = ExtractSegments(values, 16, true);

  ClusteringConfig with_corr = cfg_base();
  with_corr.use_correlation = true;
  ClusteringConfig rec_only = cfg_base();
  rec_only.use_correlation = false;

  auto r_corr = SegmentClustering(with_corr).Fit(segs);
  auto r_rec = SegmentClustering(rec_only).Fit(segs);
  double diff = 0;
  for (int64_t i = 0; i < r_corr.prototypes.numel(); ++i) {
    diff += std::fabs(r_corr.prototypes.data()[i] - r_rec.prototypes.data()[i]);
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(SegmentClusteringTest, PrototypesCorrelateWithAssignedSegments) {
  // With the correlation term on, average corr(segment, prototype) should
  // be strongly positive after fitting.
  Rng rng(11);
  Tensor segs = MakeSyntheticSegments(30, 16, rng);
  ClusteringConfig cfg;
  cfg.segment_length = 16;
  cfg.num_prototypes = 3;
  cfg.seed = 12;
  auto result = SegmentClustering(cfg).Fit(segs);
  double mean_corr = 0;
  for (int64_t i = 0; i < segs.size(0); ++i) {
    const int64_t j = result.assignments[static_cast<size_t>(i)];
    mean_corr += PearsonCorrelation(segs.data() + i * 16,
                                    result.prototypes.data() + j * 16, 16);
  }
  mean_corr /= segs.size(0);
  EXPECT_GT(mean_corr, 0.9);
}

TEST(SegmentClusteringTest, SaveLoadRoundTrip) {
  Rng rng(13);
  Tensor protos = Tensor::Randn({5, 12}, rng);
  const std::string path = ::testing::TempDir() + "/protos.bin";
  ASSERT_TRUE(cluster::SavePrototypes(path, protos).ok());
  auto loaded = cluster::LoadPrototypes(path);
  ASSERT_TRUE(loaded.ok());
  testing::ExpectTensorNear(loaded.value(), protos, 0.0);
}

TEST(SegmentClusteringTest, LoadRejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("NOTAPROT", 1, 8, f);
  std::fclose(f);
  auto loaded = cluster::LoadPrototypes(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);

  // A header whose k * p overflows int64 must be rejected, not wrapped
  // into a small allocation.
  f = std::fopen(path.c_str(), "wb");
  const int64_t huge = int64_t{1} << 32;
  std::fwrite("FOCUSPRT", 1, 8, f);
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fwrite(&huge, sizeof(huge), 1, f);
  std::fclose(f);
  auto overflow = cluster::LoadPrototypes(path);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), Status::Code::kCorruption);

  auto missing = cluster::LoadPrototypes("/nonexistent/path/x.bin");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
}

TEST(ApproximateSeriesTest, ReconstructionBeatsMeanBaseline) {
  // Fig. 11: k=8 prototypes + local mean/std approximate a day closely.
  data::GeneratorConfig gen;
  gen.num_entities = 4;
  gen.num_steps = 2400;
  gen.noise_std = 0.05f;
  gen.seed = 14;
  Tensor values = data::Generate(gen).values;
  Tensor segs = ExtractSegments(values, 16, true);
  ClusteringConfig cfg;
  cfg.segment_length = 16;
  cfg.num_prototypes = 8;
  cfg.seed = 15;
  auto result = SegmentClustering(cfg).Fit(segs);

  // Take entity 0's series and reconstruct.
  Tensor series = Slice(values, 0, 0, 1).Reshape({values.size(1)});
  Tensor approx =
      cluster::ApproximateSeries(series, result.prototypes, cfg.alpha);

  double err = 0, base_err = 0;
  for (int64_t i = 0; i < approx.numel(); ++i) {
    const float truth = series.data()[i];
    err += (approx.data()[i] - truth) * (approx.data()[i] - truth);
    // Baseline: per-segment constant mean.
    const int64_t seg = i / 16;
    double m = 0;
    for (int64_t d = 0; d < 16; ++d) m += series.data()[seg * 16 + d];
    m /= 16;
    base_err += (m - truth) * (m - truth);
  }
  EXPECT_LT(err, 0.5 * base_err);
}

}  // namespace
}  // namespace focus
