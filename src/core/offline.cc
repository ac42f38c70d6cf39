#include "core/offline.h"

#include <algorithm>
#include <cmath>

#include "utils/check.h"

namespace focus {
namespace core {

cluster::ClusteringResult RunOfflineClustering(const Tensor& train_values,
                                               const OfflineConfig& config) {
  Tensor segments = cluster::ExtractSegments(train_values, config.patch_len,
                                             /*normalize=*/true);
  cluster::ClusteringConfig cc;
  cc.segment_length = config.patch_len;
  cc.num_prototypes = config.num_prototypes;
  cc.alpha = config.alpha;
  cc.use_correlation = config.use_correlation;
  cc.max_iters = config.max_iters;
  cc.refine_steps = config.refine_steps;
  cc.seed = config.seed;
  return cluster::SegmentClustering(cc).Fit(segments);
}

QuantizedPrototypeBank QuantizePrototypeBank(const Tensor& prototypes) {
  FOCUS_CHECK_EQ(prototypes.dim(), 2) << "prototype bank must be (k, p)";
  QuantizedPrototypeBank bank;
  bank.k = prototypes.size(0);
  bank.p = prototypes.size(1);
  bank.q.resize(static_cast<size_t>(bank.k * bank.p));
  bank.scale.resize(static_cast<size_t>(bank.k));
  bank.zero_point.resize(static_cast<size_t>(bank.k));
  bank.dequantized = Tensor::Empty({bank.k, bank.p});
  for (int64_t j = 0; j < bank.k; ++j) {
    const float* row = prototypes.data() + j * bank.p;
    float lo = row[0], hi = row[0];
    for (int64_t d = 1; d < bank.p; ++d) {
      lo = std::min(lo, row[d]);
      hi = std::max(hi, row[d]);
    }
    // 254 quantization steps leave one code of slack on each end so
    // round(hi/scale)+zp cannot clip. A constant row degenerates to a
    // symmetric scale around its magnitude.
    float scale = (hi - lo) / 254.0f;
    int32_t zp = 0;
    if (scale > 0.0f) {
      zp = -128 - static_cast<int32_t>(std::lrintf(lo / scale));
    } else {
      scale = std::max(std::fabs(lo), 1e-8f) / 127.0f;
    }
    int8_t* q = bank.q.data() + j * bank.p;
    float* deq = bank.dequantized.data() + j * bank.p;
    for (int64_t d = 0; d < bank.p; ++d) {
      const int32_t qi = std::clamp(
          static_cast<int32_t>(std::lrintf(row[d] / scale)) + zp, -128,
          127);
      q[d] = static_cast<int8_t>(qi);
      deq[d] = scale * static_cast<float>(qi - zp);
    }
    bank.scale[static_cast<size_t>(j)] = scale;
    bank.zero_point[static_cast<size_t>(j)] = zp;
  }
  return bank;
}

}  // namespace core
}  // namespace focus
