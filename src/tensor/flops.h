// Runtime floating-point operation counter.
//
// Every kernel in the tensor library reports the number of scalar FLOPs it
// executes (a fused multiply-add counts as 2). This measures the actual
// computational workload of a model forward pass — the FLOPs metric of the
// paper's Fig. 6 / Table IV — rather than an analytic estimate, so the
// numbers automatically stay honest as models evolve. Per-component
// attribution (embed / branches / fusion) is obs::TraceSpan's self-FLOPs,
// which are deltas of this one counter.
//
// Thread model: every kernel computes its count once, from resolved shapes,
// on the launching thread and *outside* any ParallelFor region, so counts
// are deterministic under concurrency (independent of FOCUS_NUM_THREADS).
// The counter is a single relaxed atomic, keeping the pool-enabled build
// race-free.
#ifndef FOCUS_TENSOR_FLOPS_H_
#define FOCUS_TENSOR_FLOPS_H_

#include <cstdint>

namespace focus {

struct FlopCounter {
  static int64_t Count();
  static void Reset();
  static void Add(int64_t flops);
};

// RAII helper: snapshots the counter on construction, reads the delta on
// Elapsed().
class FlopScope {
 public:
  FlopScope() : start_(FlopCounter::Count()) {}
  int64_t Elapsed() const { return FlopCounter::Count() - start_; }

 private:
  int64_t start_;
};

}  // namespace focus

#endif  // FOCUS_TENSOR_FLOPS_H_
