// Offline segment clustering (paper Sec. V, Algorithm 1).
//
// The training series is cut into length-p segments; segments are assigned
// to prototypes by the composite distance of Eq. 6 (squared Euclidean plus
// alpha * (1 - Pearson correlation)), and prototypes are refined with AdamW
// on the combined objective of Eq. 10:
//     L = L_rec + alpha * L_corr
//     L_rec  = sum_j ||c_j - mean(B_j)||^2                      (Eq. 8)
//     L_corr = -sum_j (1/|B_j|) sum_{s in B_j} corr(s, c_j)     (Eq. 9)
// Gradients are computed analytically (the objective is simple enough that
// the autograd tape would only add overhead).
//
// Segments are z-normalized into shape space before clustering by default;
// the paper's Fig. 11 re-scales prototypes by local mean/std, implying
// shape-space prototypes (see DESIGN.md Sec. 3).
//
// Eq. 6 has one implementation, NearestPrototypes over a PrototypeBank,
// which runs the SIMD layer's nearest_prototypes kernel. It serves the
// clustering's assignment sweeps and k-means++ seeding, the Fig. 11
// approximation, and ProtoAttn's online token assignment (Algorithm 2), so
// Algorithms 1 and 2 share one distance.
#ifndef FOCUS_CLUSTER_SEGMENT_CLUSTERING_H_
#define FOCUS_CLUSTER_SEGMENT_CLUSTERING_H_

#include <string>
#include <vector>

#include "tensor/simd/vec.h"
#include "tensor/tensor.h"
#include "utils/rng.h"
#include "utils/status.h"

namespace focus {
namespace cluster {

struct ClusteringConfig {
  int64_t segment_length = 16;  // p
  int64_t num_prototypes = 16;  // k
  float alpha = 0.2f;           // correlation weight (paper Sec. VIII-A)
  int64_t max_iters = 25;       // outer assign/refine iterations
  int64_t refine_steps = 10;    // AdamW steps per outer iteration
  float lr = 0.05f;             // AdamW learning rate for prototypes
  float weight_decay = 0.0f;
  // Fig. 8 ablation: false = "Rec Only" (alpha treated as 0 everywhere).
  bool use_correlation = true;
  bool normalize_segments = true;
  // Convergence: stop when assignments stop changing or the relative
  // objective improvement falls below this threshold.
  double tolerance = 1e-4;
  uint64_t seed = 1;
};

// Pearson correlation coefficient of two length-n vectors; returns 0 when
// either vector is (numerically) constant.
float PearsonCorrelation(const float* a, const float* b, int64_t n);

// Composite Eq. 6 distance between a segment and a prototype: the
// reference definition, evaluated pair by pair in double precision. The
// sweeps use NearestPrototypes instead.
float CompositeDistance(const float* segment, const float* prototype,
                        int64_t p, float alpha);

// Mean and population standard deviation of a segment.
struct SegmentMoments {
  double mean = 0.0;
  double std = 0.0;
};

// Writes the z-normalized segment (x - mean) / (std + 1e-4) to `dst`, which
// may alias `src`, and returns the moments it used.
SegmentMoments ZNormalize(const float* src, int64_t p, float* dst);

// Eq. 6 statistics of a prototype bank, computed once per bank: the
// centered rows c - mean(c), each row's mean and var = sum (c - mean)^2.
// p is at most simd::kMaxSegmentLength.
struct PrototypeBank {
  PrototypeBank(const float* rows, int64_t k, int64_t p);

  simd::ProtoBankView View() const {
    return {centered.data(), mean.data(), var.data(), k, p};
  }

  int64_t k = 0, p = 0;
  std::vector<float> centered;  // (k, p)
  std::vector<double> mean;     // (k)
  std::vector<float> var;       // (k)
};

// Nearest prototype under Eq. 6 for each of the `n` length-p `rows`, after
// preparing each row per `prep` (simd::RowPrep: as given, z-normalized, or
// z-normalized and rounded to int8). Each row is centered, t~ = t - m_t,
// and against every prototype
//   dist = var_t + var_c - 2x + p (m_t - m_c)^2 + alpha (1 - corr),
//   x = t~ . c~,  corr = x / sqrt(var_t var_c)   (0 when either row is
//   constant).
// The centered form stays accurate on segments far from zero mean. Ties go
// to the lower index. Writes the index to `idx[i]` and the distance to
// `dist[i]`; either pointer may be null. Rows run 8 to a SIMD pass
// (simd::KernelTable::nearest_prototypes) and allocate nothing; a row's
// result depends only on the row, so callers may shard rows freely.
void NearestPrototypes(const float* rows, int64_t n,
                       const PrototypeBank& bank, float alpha,
                       simd::RowPrep prep, int64_t* idx, float* dist);

// Cuts (N, T) values into non-overlapping length-p segments, row-major by
// entity then time: segment index = e * (T/p) + i. Remainder steps beyond
// the last full segment are dropped. Optionally z-normalizes each segment.
Tensor ExtractSegments(const Tensor& values, int64_t p, bool normalize);

struct ClusteringResult {
  Tensor prototypes;                 // (k, p)
  std::vector<int64_t> assignments;  // per input segment
  std::vector<double> objective_history;  // Eq. 10 after each outer iter
  int64_t iterations = 0;
  double seconds = 0.0;
};

class SegmentClustering {
 public:
  explicit SegmentClustering(ClusteringConfig config);

  // `segments` is (num_segments, p).
  ClusteringResult Fit(const Tensor& segments);

  // Nearest prototype per segment under Eq. 6 (alpha = 0 reduces to L2).
  static std::vector<int64_t> Assign(const Tensor& segments,
                                     const Tensor& prototypes, float alpha);

  const ClusteringConfig& config() const { return config_; }

 private:
  // k-means++ style seeding under the composite distance.
  Tensor InitPrototypes(const Tensor& segments, Rng& rng) const;

  // Eq. 10 objective for fixed assignments.
  double Objective(const Tensor& segments, const Tensor& prototypes,
                   const std::vector<int64_t>& assignments) const;

  ClusteringConfig config_;
};

// Reconstructs a (normalized) series from its prototype assignments plus
// per-segment local mean/std — the paper's Fig. 11 approximation. `values`
// is a single series of length T; returns the reconstruction of the first
// floor(T/p)*p steps.
Tensor ApproximateSeries(const Tensor& series, const Tensor& prototypes,
                         float alpha);

// Binary prototype persistence (offline phase output consumed online).
Status SavePrototypes(const std::string& path, const Tensor& prototypes);
StatusOr<Tensor> LoadPrototypes(const std::string& path);

}  // namespace cluster
}  // namespace focus

#endif  // FOCUS_CLUSTER_SEGMENT_CLUSTERING_H_
