// Convenience driver for the offline phase: extract shape-space segments
// from the (normalized) training region and fit prototypes (Algorithm 1),
// plus the freeze-time int8 quantize-dequantize of the fitted prototype
// bank that the FOCUS_PRECISION=int8proto assignment searches (DESIGN §13).
#ifndef FOCUS_CORE_OFFLINE_H_
#define FOCUS_CORE_OFFLINE_H_

#include <cstdint>
#include <vector>

#include "cluster/segment_clustering.h"
#include "tensor/tensor.h"

namespace focus {
namespace core {

struct OfflineConfig {
  int64_t patch_len = 16;       // p
  int64_t num_prototypes = 16;  // k
  float alpha = 0.2f;
  bool use_correlation = true;  // Fig. 8 ablation switch
  int64_t max_iters = 25;
  int64_t refine_steps = 10;
  uint64_t seed = 1;
};

// `train_values` is the z-scored (N, T_train) training region.
cluster::ClusteringResult RunOfflineClustering(const Tensor& train_values,
                                               const OfflineConfig& config);

// Per-prototype affine int8 quantization of a frozen (k, p) prototype
// bank, computed ONCE at freeze time: q = clamp(round(x / scale) + zp,
// -128, 127) with one (scale, zero_point) pair per prototype row.
// `dequantized` holds the rows scale * (q - zp) that the int8proto
// assignment searches through the shared Eq. 6 routine
// (cluster::NearestPrototypes).
struct QuantizedPrototypeBank {
  int64_t k = 0, p = 0;
  std::vector<int8_t> q;            // (k, p) row-major quantized values
  std::vector<float> scale;         // (k) dequantize: scale*(q - zp)
  std::vector<int32_t> zero_point;  // (k)
  Tensor dequantized;               // (k, p)
};

QuantizedPrototypeBank QuantizePrototypeBank(const Tensor& prototypes);

}  // namespace core
}  // namespace focus

#endif  // FOCUS_CORE_OFFLINE_H_
