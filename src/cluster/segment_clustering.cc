#include "cluster/segment_clustering.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "obs/trace.h"
#include "optim/optimizer.h"
#include "parallel/thread_pool.h"
#include "tensor/simd/vec.h"
#include "utils/check.h"
#include "utils/stopwatch.h"

namespace focus {
namespace cluster {

float PearsonCorrelation(const float* a, const float* b, int64_t n) {
  double ma = 0, mb = 0;
  for (int64_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double num = 0, da = 0, db = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double xa = a[i] - ma;
    const double xb = b[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  if (da < 1e-12 || db < 1e-12) return 0.0f;
  return static_cast<float>(num / std::sqrt(da * db));
}

float CompositeDistance(const float* segment, const float* prototype,
                        int64_t p, float alpha) {
  double sq = 0;
  for (int64_t i = 0; i < p; ++i) {
    const double d = segment[i] - prototype[i];
    sq += d * d;
  }
  if (alpha == 0.0f) return static_cast<float>(sq);
  const float corr = PearsonCorrelation(segment, prototype, p);
  return static_cast<float>(sq) + alpha * (1.0f - corr);
}

namespace {

SegmentMoments Moments(const float* src, int64_t p) {
  double mean = 0;
  for (int64_t j = 0; j < p; ++j) mean += src[j];
  mean /= p;
  double var = 0;
  for (int64_t j = 0; j < p; ++j) var += (src[j] - mean) * (src[j] - mean);
  return {mean, std::sqrt(var / p)};
}

// Writes row - mean(row) to `out` and returns the mean. The mean stays in
// double so the p (m_t - m_c)^2 term of Eq. 6 keeps its precision on
// segments far from zero mean.
double Center(const float* row, int64_t p, float* out) {
  double mean = 0;
  for (int64_t d = 0; d < p; ++d) mean += row[d];
  mean /= p;
  for (int64_t d = 0; d < p; ++d) {
    out[d] = static_cast<float>(row[d] - mean);
  }
  return mean;
}

}  // namespace

SegmentMoments ZNormalize(const float* src, int64_t p, float* dst) {
  const SegmentMoments moments = Moments(src, p);
  const float mean = static_cast<float>(moments.mean);
  const float inv_std = 1.0f / (static_cast<float>(moments.std) + 1e-4f);
  for (int64_t j = 0; j < p; ++j) dst[j] = (src[j] - mean) * inv_std;
  return moments;
}

PrototypeBank::PrototypeBank(const float* rows, int64_t k, int64_t p)
    : k(k),
      p(p),
      centered(static_cast<size_t>(k * p)),
      mean(static_cast<size_t>(k)),
      var(static_cast<size_t>(k)) {
  FOCUS_CHECK_LE(p, simd::kMaxSegmentLength)
      << "segment length exceeds the nearest-prototype kernel's limit";
  const auto dot = simd::Kernels().dot;
  for (int64_t j = 0; j < k; ++j) {
    float* c = centered.data() + j * p;
    mean[static_cast<size_t>(j)] = Center(rows + j * p, p, c);
    var[static_cast<size_t>(j)] = dot(c, c, p);
  }
}

void NearestPrototypes(const float* rows, int64_t n,
                       const PrototypeBank& bank, float alpha,
                       simd::RowPrep prep, int64_t* idx, float* dist) {
  simd::Kernels().nearest_prototypes(rows, n, bank.View(), alpha, prep, idx,
                                     dist);
}

Tensor ExtractSegments(const Tensor& values, int64_t p, bool normalize) {
  FOCUS_CHECK_EQ(values.dim(), 2) << "ExtractSegments expects (N, T)";
  FOCUS_CHECK_GT(p, 1);
  const int64_t n = values.size(0), t = values.size(1);
  const int64_t per_entity = t / p;
  FOCUS_CHECK_GT(per_entity, 0) << "series shorter than one segment";
  const int64_t total = n * per_entity;

  Tensor segments = Tensor::Empty({total, p});
  for (int64_t e = 0; e < n; ++e) {
    const float* row = values.data() + e * t;
    for (int64_t i = 0; i < per_entity; ++i) {
      float* dst = segments.data() + (e * per_entity + i) * p;
      if (normalize) {
        ZNormalize(row + i * p, p, dst);
      } else {
        std::memcpy(dst, row + i * p, static_cast<size_t>(p) * sizeof(float));
      }
    }
  }
  return segments;
}

SegmentClustering::SegmentClustering(ClusteringConfig config)
    : config_(std::move(config)) {
  FOCUS_CHECK_GT(config_.num_prototypes, 0);
  FOCUS_CHECK_GT(config_.segment_length, 1);
  FOCUS_CHECK_GE(config_.alpha, 0.0f);
}

std::vector<int64_t> SegmentClustering::Assign(const Tensor& segments,
                                               const Tensor& prototypes,
                                               float alpha) {
  obs::TraceSpan span("cluster/assign");
  FOCUS_CHECK_EQ(segments.dim(), 2);
  FOCUS_CHECK_EQ(prototypes.dim(), 2);
  const int64_t p = segments.size(1);
  FOCUS_CHECK_EQ(prototypes.size(1), p) << "segment/prototype length mismatch";
  const int64_t n = segments.size(0), k = prototypes.size(0);
  std::vector<int64_t> assignments(static_cast<size_t>(n));
  const PrototypeBank bank(prototypes.data(), k, p);
  // Each segment's nearest-prototype search is independent; shards write
  // disjoint assignment slices, so the result is identical for any
  // FOCUS_NUM_THREADS.
  ParallelFor(0, n, k * p, [&](int64_t i0, int64_t i1) {
    NearestPrototypes(segments.data() + i0 * p, i1 - i0, bank, alpha,
                      simd::RowPrep::kNone, assignments.data() + i0,
                      nullptr);
  });
  return assignments;
}

Tensor SegmentClustering::InitPrototypes(const Tensor& segments,
                                         Rng& rng) const {
  const int64_t n = segments.size(0), p = segments.size(1);
  const int64_t k = config_.num_prototypes;
  const float alpha = config_.use_correlation ? config_.alpha : 0.0f;
  Tensor prototypes = Tensor::Empty({k, p});

  // k-means++ seeding: first center uniform, then proportional to the
  // composite distance to the nearest chosen center.
  std::vector<double> min_dist(static_cast<size_t>(n),
                               std::numeric_limits<double>::max());
  std::vector<float> dist(static_cast<size_t>(n));
  int64_t first = static_cast<int64_t>(rng.UniformInt(
      static_cast<uint64_t>(n)));
  std::memcpy(prototypes.data(), segments.data() + first * p,
              static_cast<size_t>(p) * sizeof(float));
  for (int64_t c = 1; c < k; ++c) {
    const PrototypeBank last(prototypes.data() + (c - 1) * p, 1, p);
    // Distance updates are per-segment independent; the probability mass
    // `total` is summed serially afterwards in index order so the sampled
    // seeding is identical for any FOCUS_NUM_THREADS.
    ParallelFor(0, n, p, [&](int64_t i0, int64_t i1) {
      NearestPrototypes(segments.data() + i0 * p, i1 - i0, last, alpha,
                        simd::RowPrep::kNone, nullptr, dist.data() + i0);
      for (int64_t i = i0; i < i1; ++i) {
        const size_t si = static_cast<size_t>(i);
        min_dist[si] = std::min(min_dist[si], static_cast<double>(dist[si]));
      }
    });
    double total = 0;
    for (int64_t i = 0; i < n; ++i) {
      total += min_dist[static_cast<size_t>(i)];
    }
    double pick = rng.Uniform() * total;
    int64_t chosen = n - 1;
    for (int64_t i = 0; i < n; ++i) {
      pick -= min_dist[static_cast<size_t>(i)];
      if (pick <= 0) {
        chosen = i;
        break;
      }
    }
    std::memcpy(prototypes.data() + c * p, segments.data() + chosen * p,
                static_cast<size_t>(p) * sizeof(float));
  }
  return prototypes;
}

double SegmentClustering::Objective(
    const Tensor& segments, const Tensor& prototypes,
    const std::vector<int64_t>& assignments) const {
  obs::TraceSpan span("cluster/objective");
  const int64_t n = segments.size(0), p = segments.size(1);
  const int64_t k = prototypes.size(0);
  const float alpha = config_.use_correlation ? config_.alpha : 0.0f;

  // Bucket means and counts.
  std::vector<double> mean(static_cast<size_t>(k * p), 0.0);
  std::vector<int64_t> count(static_cast<size_t>(k), 0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j = assignments[static_cast<size_t>(i)];
    ++count[static_cast<size_t>(j)];
    const float* seg = segments.data() + i * p;
    for (int64_t d = 0; d < p; ++d) {
      mean[static_cast<size_t>(j * p + d)] += seg[d];
    }
  }
  double rec = 0, corr = 0;
  for (int64_t j = 0; j < k; ++j) {
    if (count[static_cast<size_t>(j)] == 0) continue;
    const float* proto = prototypes.data() + j * p;
    for (int64_t d = 0; d < p; ++d) {
      const double m = mean[static_cast<size_t>(j * p + d)] /
                       count[static_cast<size_t>(j)];
      rec += (proto[d] - m) * (proto[d] - m);
    }
  }
  if (alpha > 0.0f) {
    std::vector<double> corr_sum(static_cast<size_t>(k), 0.0);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t j = assignments[static_cast<size_t>(i)];
      corr_sum[static_cast<size_t>(j)] += PearsonCorrelation(
          segments.data() + i * p, prototypes.data() + j * p, p);
    }
    for (int64_t j = 0; j < k; ++j) {
      if (count[static_cast<size_t>(j)] > 0) {
        corr -= corr_sum[static_cast<size_t>(j)] /
                count[static_cast<size_t>(j)];
      }
    }
  }
  return rec + alpha * corr;
}

ClusteringResult SegmentClustering::Fit(const Tensor& segments) {
  FOCUS_CHECK_EQ(segments.dim(), 2);
  FOCUS_CHECK_EQ(segments.size(1), config_.segment_length)
      << "segments were extracted with a different p";
  const int64_t n = segments.size(0), p = segments.size(1);
  const int64_t k = config_.num_prototypes;
  FOCUS_CHECK_GE(n, k) << "need at least k segments";
  const float alpha = config_.use_correlation ? config_.alpha : 0.0f;

  Stopwatch timer;
  obs::TraceSpan fit_span("cluster/fit");
  Rng rng(config_.seed);
  ClusteringResult result;
  result.prototypes = InitPrototypes(segments, rng);
  Tensor& prototypes = result.prototypes;

  // AdamW state for prototype refinement (paper: "we employ the AdamW
  // optimizer, iteratively updating the prototype set C").
  std::vector<float> m_state(static_cast<size_t>(k * p), 0.0f);
  std::vector<float> v_state(static_cast<size_t>(k * p), 0.0f);
  int64_t adam_t = 0;

  std::vector<int64_t> prev_assignments;
  double prev_objective = std::numeric_limits<double>::max();

  for (int64_t iter = 0; iter < config_.max_iters; ++iter) {
    // --- Assignment step (Eq. 6 / lines 8-11 of Algorithm 1). ---
    result.assignments = Assign(segments, prototypes, alpha);

    // --- Update: bucket statistics + prototype refinement. The span is
    // closed explicitly before the objective evaluation below.
    std::optional<obs::TraceSpan> update_span;
    update_span.emplace("cluster/update");
    // Bucket statistics.
    std::vector<double> bucket_mean(static_cast<size_t>(k * p), 0.0);
    std::vector<int64_t> count(static_cast<size_t>(k), 0);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t j = result.assignments[static_cast<size_t>(i)];
      ++count[static_cast<size_t>(j)];
      const float* seg = segments.data() + i * p;
      for (int64_t d = 0; d < p; ++d) {
        bucket_mean[static_cast<size_t>(j * p + d)] += seg[d];
      }
    }
    for (int64_t j = 0; j < k; ++j) {
      if (count[static_cast<size_t>(j)] > 0) {
        for (int64_t d = 0; d < p; ++d) {
          bucket_mean[static_cast<size_t>(j * p + d)] /=
              count[static_cast<size_t>(j)];
        }
      }
    }

    // Re-seed empty buckets from a random segment so all k prototypes stay
    // live (standard k-means practice).
    for (int64_t j = 0; j < k; ++j) {
      if (count[static_cast<size_t>(j)] == 0) {
        const int64_t pick = static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(n)));
        std::memcpy(prototypes.data() + j * p, segments.data() + pick * p,
                    static_cast<size_t>(p) * sizeof(float));
        for (int64_t d = 0; d < p; ++d) {
          bucket_mean[static_cast<size_t>(j * p + d)] =
              prototypes.data()[j * p + d];
        }
        count[static_cast<size_t>(j)] = 1;
      }
    }

    // --- Refinement step (Eq. 8-10 / lines 12-15 of Algorithm 1). ---
    std::vector<float> grad(static_cast<size_t>(k * p));
    for (int64_t step = 0; step < config_.refine_steps; ++step) {
      std::fill(grad.begin(), grad.end(), 0.0f);
      // d L_rec / d c_j = 2 (c_j - mean(B_j))
      for (int64_t j = 0; j < k; ++j) {
        const float* proto = prototypes.data() + j * p;
        for (int64_t d = 0; d < p; ++d) {
          grad[static_cast<size_t>(j * p + d)] +=
              2.0f * (proto[d] - static_cast<float>(
                                     bucket_mean[static_cast<size_t>(
                                         j * p + d)]));
        }
      }
      // d L_corr / d c_j: for each assigned segment s with u = s - mean(s),
      // v = c - mean(c): d corr/dc = P (u/(|u||v|) - corr * v/|v|^2),
      // where P projects out the mean. L_corr carries a minus sign and the
      // 1/|B_j| average; the alpha weight is applied at the end.
      if (alpha > 0.0f) {
        std::vector<double> w(static_cast<size_t>(p));
        for (int64_t i = 0; i < n; ++i) {
          const int64_t j = result.assignments[static_cast<size_t>(i)];
          const float* seg = segments.data() + i * p;
          const float* proto = prototypes.data() + j * p;
          double ms = 0, mc = 0;
          for (int64_t d = 0; d < p; ++d) {
            ms += seg[d];
            mc += proto[d];
          }
          ms /= p;
          mc /= p;
          double uu = 0, vv = 0, uv = 0;
          for (int64_t d = 0; d < p; ++d) {
            const double u = seg[d] - ms;
            const double v = proto[d] - mc;
            uu += u * u;
            vv += v * v;
            uv += u * v;
          }
          if (uu < 1e-12 || vv < 1e-12) continue;
          const double norm_u = std::sqrt(uu), norm_v = std::sqrt(vv);
          const double corr = uv / (norm_u * norm_v);
          double w_mean = 0;
          for (int64_t d = 0; d < p; ++d) {
            const double u = seg[d] - ms;
            const double v = proto[d] - mc;
            w[static_cast<size_t>(d)] =
                u / (norm_u * norm_v) - corr * v / vv;
            w_mean += w[static_cast<size_t>(d)];
          }
          w_mean /= p;
          const double scale =
              alpha / static_cast<double>(count[static_cast<size_t>(j)]);
          for (int64_t d = 0; d < p; ++d) {
            // Minus from L_corr's sign: the loss *maximizes* correlation.
            grad[static_cast<size_t>(j * p + d)] -= static_cast<float>(
                scale * (w[static_cast<size_t>(d)] - w_mean));
          }
        }
      }

      optim::AdamWUpdate({prototypes.data(), grad.size()}, grad, m_state,
                         v_state, ++adam_t, config_.lr, config_.weight_decay);
    }
    update_span.reset();

    result.iterations = iter + 1;
    const double objective = Objective(segments, prototypes,
                                       result.assignments);
    result.objective_history.push_back(objective);

    // --- Convergence (line 7 of Algorithm 1). ---
    const bool assignments_stable = result.assignments == prev_assignments;
    const bool objective_stable =
        prev_objective != std::numeric_limits<double>::max() &&
        std::fabs(prev_objective - objective) <=
            config_.tolerance * (std::fabs(prev_objective) + 1e-12);
    if (assignments_stable || objective_stable) break;
    prev_assignments = result.assignments;
    prev_objective = objective;
  }

  // Final assignment against the refined prototypes.
  result.assignments = Assign(segments, prototypes, alpha);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Tensor ApproximateSeries(const Tensor& series, const Tensor& prototypes,
                         float alpha) {
  FOCUS_CHECK_EQ(series.dim(), 1) << "ApproximateSeries expects a 1-D series";
  const int64_t p = prototypes.size(1);
  const int64_t segments = series.numel() / p;
  FOCUS_CHECK_GT(segments, 0);
  Tensor out = Tensor::Zeros({segments * p});
  const PrototypeBank bank(prototypes.data(), prototypes.size(0), p);
  // Assign in shape space, keeping the raw segment's local statistics
  // (paper: "each prototype adjusted to maintain the original mean and
  // standard deviation").
  std::vector<int64_t> assignments(static_cast<size_t>(segments));
  NearestPrototypes(series.data(), segments, bank, alpha,
                    simd::RowPrep::kZNormalize, assignments.data(), nullptr);
  for (int64_t i = 0; i < segments; ++i) {
    const SegmentMoments local = Moments(series.data() + i * p, p);
    const int64_t best_j = assignments[static_cast<size_t>(i)];
    // Rescale the prototype back to the local mean/std.
    const float* proto = prototypes.data() + best_j * p;
    double pm = 0;
    for (int64_t d = 0; d < p; ++d) pm += proto[d];
    pm /= p;
    double pv = 0;
    for (int64_t d = 0; d < p; ++d) pv += (proto[d] - pm) * (proto[d] - pm);
    const double pstd = std::sqrt(pv / p) + 1e-8;
    for (int64_t d = 0; d < p; ++d) {
      out.data()[i * p + d] = static_cast<float>(
          local.mean + (proto[d] - pm) / pstd * local.std);
    }
  }
  return out;
}

Status SavePrototypes(const std::string& path, const Tensor& prototypes) {
  FOCUS_CHECK_EQ(prototypes.dim(), 2);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  const char magic[8] = {'F', 'O', 'C', 'U', 'S', 'P', 'R', 'T'};
  const int64_t k = prototypes.size(0), p = prototypes.size(1);
  bool ok = std::fwrite(magic, 1, 8, f) == 8 &&
            std::fwrite(&k, sizeof(k), 1, f) == 1 &&
            std::fwrite(&p, sizeof(p), 1, f) == 1 &&
            std::fwrite(prototypes.data(), sizeof(float),
                        static_cast<size_t>(k * p), f) ==
                static_cast<size_t>(k * p);
  std::fclose(f);
  if (!ok) return Status::IoError("short write to " + path);
  return Status::Ok();
}

StatusOr<Tensor> LoadPrototypes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  char magic[8];
  int64_t k = 0, p = 0;
  if (std::fread(magic, 1, 8, f) != 8 ||
      std::memcmp(magic, "FOCUSPRT", 8) != 0) {
    std::fclose(f);
    return Status::Corruption("bad prototype file magic in " + path);
  }
  // k and p come from the file: bound p by the cap divided by k, since
  // the product itself can overflow.
  if (std::fread(&k, sizeof(k), 1, f) != 1 ||
      std::fread(&p, sizeof(p), 1, f) != 1 || k <= 0 || p <= 0 ||
      p > (int64_t{1} << 30) / k) {
    std::fclose(f);
    return Status::Corruption("bad prototype header in " + path);
  }
  Tensor prototypes = Tensor::Empty({k, p});
  const bool ok = std::fread(prototypes.data(), sizeof(float),
                             static_cast<size_t>(k * p), f) ==
                  static_cast<size_t>(k * p);
  std::fclose(f);
  if (!ok) return Status::Corruption("truncated prototype file " + path);
  return prototypes;
}

}  // namespace cluster
}  // namespace focus
