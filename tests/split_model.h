// The bench FOCUS shape (8 entities, L=512, d=64; bench_kernels'
// MakeBenchFocusModel) shared by the tests that must drive the kernel
// pool: its batch-1 forward carries enough work per matmul that
// ParallelFor splits it on a multi-thread pool, which a toy config
// never does.
#ifndef FOCUS_TESTS_SPLIT_MODEL_H_
#define FOCUS_TESTS_SPLIT_MODEL_H_

#include <cstdint>

#include "core/focus_model.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace focus {

inline core::FocusConfig SplitFocusConfig(int64_t lookback = 512) {
  core::FocusConfig cfg;
  cfg.lookback = lookback;
  cfg.horizon = 24;
  cfg.num_entities = 8;
  cfg.patch_len = 16;
  cfg.d_model = 64;
  cfg.readout_queries = 6;
  cfg.seed = 9;
  return cfg;
}

// 16 prototypes of the config's patch length.
inline Tensor SplitFocusPrototypes() {
  Rng rng(10);
  return Tensor::Randn({16, 16}, rng);
}

}  // namespace focus

#endif  // FOCUS_TESTS_SPLIT_MODEL_H_
