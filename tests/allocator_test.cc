// Tests for the caching tensor allocator (tensor/allocator.h): size-class
// rounding, buffer recycling, cap/trim behaviour, bypass parity, the
// logical-vs-raw accounting contract with MemoryStats, debug NaN
// poisoning, and a concurrent alloc/free stress (registered in the TSAN
// ctest matrix at 4 and 8 threads).
#include "tensor/allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/memory.h"
#include "tensor/tensor.h"
#include "utils/check.h"
#include "utils/env.h"

namespace focus {
namespace {

// Pins the allocator cap for one test and restores it afterwards, trimming
// so no cached buffer from this test leaks into the next one's counters.
class ScopedCap {
 public:
  explicit ScopedCap(int64_t bytes) : prev_(Allocator::Get().cap_bytes()) {
    Allocator::Get().SetCapBytes(bytes);
  }
  ~ScopedCap() {
    Allocator::Get().Trim();
    Allocator::Get().SetCapBytes(prev_);
  }

 private:
  int64_t prev_;
};

class ScopedDebugChecks {
 public:
  explicit ScopedDebugChecks(bool enabled) : prev_(debug::ChecksEnabled()) {
    debug::SetChecksEnabled(enabled);
  }
  ~ScopedDebugChecks() { debug::SetChecksEnabled(prev_); }

 private:
  bool prev_;
};

constexpr int64_t kMiB = int64_t{1} << 20;

TEST(SizeClassTest, SmallClassesRoundToNextPowerOfTwo) {
  EXPECT_EQ(Allocator::SizeClassFloats(1), 64);
  EXPECT_EQ(Allocator::SizeClassFloats(64), 64);
  EXPECT_EQ(Allocator::SizeClassFloats(65), 128);
  EXPECT_EQ(Allocator::SizeClassFloats(1000), 1024);
  EXPECT_EQ(Allocator::SizeClassFloats(1 << 20), 1 << 20);
}

TEST(SizeClassTest, LargeClassesRoundToQuantum) {
  const int64_t quantum = int64_t{1} << 18;  // 1 MiB of floats
  EXPECT_EQ(Allocator::SizeClassFloats((1 << 20) + 1), 5 * quantum);
  EXPECT_EQ(Allocator::SizeClassFloats(5 * quantum), 5 * quantum);
  EXPECT_EQ(Allocator::SizeClassFloats(5 * quantum + 1), 6 * quantum);
}

TEST(SizeClassTest, ClassIsNeverSmallerThanRequest) {
  for (int64_t n : {int64_t{1}, int64_t{63}, int64_t{64}, int64_t{65},
                    int64_t{4097}, (int64_t{1} << 20) - 1,
                    (int64_t{1} << 20) + 1, int64_t{3} << 20}) {
    EXPECT_GE(Allocator::SizeClassFloats(n), n) << "numel " << n;
  }
}

TEST(AllocatorTest, RecyclesSameClassBuffer) {
  ScopedCap cap(64 * kMiB);
  Allocator& alloc = Allocator::Get();
  const AllocatorStats before = alloc.Stats();

  float* p = alloc.Allocate(1000);
  alloc.Deallocate(p, 1000);
  // Same size class (1024 floats) on the same thread: the free-list pop
  // must hand the identical buffer back.
  float* q = alloc.Allocate(700);
  EXPECT_EQ(q, p);
  alloc.Deallocate(q, 700);

  const AllocatorStats after = alloc.Stats();
  EXPECT_EQ(after.hits - before.hits, 1);
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.frees_cached - before.frees_cached, 2);
}

TEST(AllocatorTest, CapBoundsCachedBytesAndTrimReleases) {
  // Cap admits one 64-float buffer (256 B) but not two.
  ScopedCap cap(256);
  Allocator& alloc = Allocator::Get();
  const AllocatorStats before = alloc.Stats();

  float* a = alloc.Allocate(64);
  float* b = alloc.Allocate(64);
  alloc.Deallocate(a, 64);  // fits the cap: cached
  alloc.Deallocate(b, 64);  // over the cap: released to the system

  AllocatorStats after = alloc.Stats();
  EXPECT_EQ(after.frees_cached - before.frees_cached, 1);
  EXPECT_EQ(after.frees_released - before.frees_released, 1);
  EXPECT_EQ(after.cached_bytes, 256);

  EXPECT_EQ(alloc.Trim(), 256);
  after = alloc.Stats();
  EXPECT_EQ(after.cached_bytes, 0);
  EXPECT_GE(after.trims - before.trims, 1);
  EXPECT_GE(after.trimmed_bytes - before.trimmed_bytes, 256);
}

TEST(AllocatorTest, BypassNeverRecycles) {
  ScopedCap cap(0);
  Allocator& alloc = Allocator::Get();
  const AllocatorStats before = alloc.Stats();

  float* p = alloc.Allocate(4096);
  alloc.Deallocate(p, 4096);
  float* q = alloc.Allocate(4096);
  alloc.Deallocate(q, 4096);

  const AllocatorStats after = alloc.Stats();
  EXPECT_EQ(after.hits - before.hits, 0);
  EXPECT_EQ(after.frees_cached - before.frees_cached, 0);
  EXPECT_EQ(after.misses - before.misses, 2);
  EXPECT_EQ(after.frees_released - before.frees_released, 2);
  // Every byte went back to the system.
  EXPECT_EQ(after.raw_bytes, before.raw_bytes);
}

TEST(AllocatorTest, RawBytesReflectLiveAndCachedClassBytes) {
  ScopedCap cap(64 * kMiB);
  Allocator& alloc = Allocator::Get();
  const AllocatorStats before = alloc.Stats();

  float* p = alloc.Allocate(1000);  // class 1024 floats = 4096 B
  AllocatorStats live = alloc.Stats();
  EXPECT_EQ(live.raw_bytes - before.raw_bytes, 4096);

  alloc.Deallocate(p, 1000);  // cached: raw bytes stay with the allocator
  AllocatorStats cached = alloc.Stats();
  EXPECT_EQ(cached.raw_bytes - before.raw_bytes, 4096);
  EXPECT_EQ(cached.cached_bytes - before.cached_bytes, 4096);

  alloc.Trim();
  AllocatorStats trimmed = alloc.Stats();
  EXPECT_EQ(trimmed.raw_bytes - before.raw_bytes, 0);
}

// The paper's peak-memory metric (Fig. 6) is defined over logical
// live-tensor bytes; caching must be invisible to it. Run the same tensor
// workload cached and bypassed and require identical MemoryStats deltas.
TEST(AllocatorTest, MemoryStatsAreCacheInvariant) {
  auto workload = [] {
    MemoryStats::ResetPeak();
    const int64_t base_current = MemoryStats::CurrentBytes();
    const int64_t base_allocs = MemoryStats::TotalAllocations();
    for (int iter = 0; iter < 3; ++iter) {
      Tensor a = Tensor::Zeros({128, 64});
      Tensor b = Tensor::Full({128, 64}, 2.0f);
      Tensor c = Tensor::Zeros({32});
      (void)a;
      (void)b;
      (void)c;
    }
    struct Deltas {
      int64_t peak, current, allocs;
    };
    return Deltas{MemoryStats::PeakBytes(),
                  MemoryStats::CurrentBytes() - base_current,
                  MemoryStats::TotalAllocations() - base_allocs};
  };

  int64_t cached_peak, cached_current, cached_allocs;
  {
    ScopedCap cap(64 * kMiB);
    auto d = workload();
    cached_peak = d.peak;
    cached_current = d.current;
    cached_allocs = d.allocs;
  }
  {
    ScopedCap cap(0);
    auto d = workload();
    EXPECT_EQ(d.peak, cached_peak);
    EXPECT_EQ(d.current, cached_current);
    EXPECT_EQ(d.allocs, cached_allocs);
  }
  EXPECT_EQ(cached_current, 0);  // everything was freed
}

TEST(AllocatorTest, DebugChecksPoisonRecycledBuffers) {
  ScopedCap cap(64 * kMiB);
  ScopedDebugChecks checks(true);
  Allocator& alloc = Allocator::Get();

  float* p = alloc.Allocate(256);
  std::fill_n(p, 256, 1.0f);
  alloc.Deallocate(p, 256);
  float* q = alloc.Allocate(256);
  ASSERT_EQ(q, p);  // recycled, so the old contents would otherwise leak
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(std::isnan(q[i])) << "index " << i;
  }
  alloc.Deallocate(q, 256);
}

// Concurrent alloc/free stress over mixed size classes, including frees
// issued from a different thread than the matching alloc (the sharded
// free lists must tolerate cross-shard traffic). Uses the raw Allocator
// API rather than Tensors: MemoryStats' logical counters are plain
// non-atomic globals owned by the main thread by design.
TEST(AllocatorTest, ConcurrentAllocFreeStress) {
  ScopedCap cap(64 * kMiB);
  Allocator& alloc = Allocator::Get();
  const int num_threads = static_cast<int>(
      GetEnvIntInRangeOr("FOCUS_NUM_THREADS", 4, 1, 64));
  constexpr int kIters = 400;
  const int64_t sizes[] = {60, 64, 1000, 4096, 70000, (int64_t{1} << 20) + 5};

  // Phase 1: each thread churns private buffers, verifying its writes.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t pick = static_cast<size_t>(t + i) %
                            (sizeof(sizes) / sizeof(int64_t));
        const int64_t numel = sizes[pick];
        float* p = alloc.Allocate(numel);
        const float sentinel = static_cast<float>(t * kIters + i);
        p[0] = sentinel;
        p[numel - 1] = sentinel;
        ASSERT_EQ(p[0], sentinel);
        ASSERT_EQ(p[numel - 1], sentinel);
        alloc.Deallocate(p, numel);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  threads.clear();

  // Phase 2: producer/consumer — buffers allocated here, freed on workers.
  std::vector<std::vector<std::pair<float*, int64_t>>> handoff(
      static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    for (int i = 0; i < 32; ++i) {
      const int64_t numel = sizes[i % (sizeof(sizes) / sizeof(int64_t))];
      handoff[static_cast<size_t>(t)].emplace_back(alloc.Allocate(numel),
                                                   numel);
    }
  }
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (auto& [ptr, numel] : handoff[static_cast<size_t>(t)]) {
        alloc.Deallocate(ptr, numel);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Nothing live remains from this test: after a trim the allocator holds
  // no more raw bytes than it did cached-elsewhere before the test.
  alloc.Trim();
  EXPECT_EQ(alloc.Stats().cached_bytes, 0);
}

}  // namespace
}  // namespace focus
