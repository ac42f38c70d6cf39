#include "tensor/flops.h"

#include <atomic>

namespace focus {

namespace {
// Kernels compute their FLOP count once, from resolved dims, on the thread
// that launched them — never from inside a ParallelFor body — so in
// practice this counter sees no contention. It is atomic anyway so a stray
// add from a pool thread is merely unattributed, not a data race.
std::atomic<int64_t> g_flops{0};
}  // namespace

int64_t FlopCounter::Count() {
  return g_flops.load(std::memory_order_relaxed);
}

void FlopCounter::Reset() { g_flops.store(0, std::memory_order_relaxed); }

void FlopCounter::Add(int64_t flops) {
  g_flops.fetch_add(flops, std::memory_order_relaxed);
}

}  // namespace focus
