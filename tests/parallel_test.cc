// ThreadPool / ParallelFor unit tests: the NumShards split rule, coverage
// of the range split, worker reuse across many regions, exception
// propagation to the caller, nested ParallelFor serialization, and pool
// resizing. Every concurrency test passes a work figure above the
// threshold and asserts that its region really split.
#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace focus {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::Global().Resize(1); }
};

// Work per index that puts a range of `n` indices above four shards of
// work, so a 4-thread pool cuts it into exactly 4 shards.
int64_t SplittingWork(int64_t n) { return 4 * kMinShardWork / n + 1; }

TEST_F(ParallelTest, NumShardsFollowsTheWorkRule) {
  const int64_t t = kMinShardWork;
  const int64_t max = std::numeric_limits<int64_t>::max();
  struct Case {
    int64_t range, work;
    int threads, want;
  };
  const Case cases[] = {
      {0, 1000, 4, 0},          // empty range
      {-3, 1000, 4, 0},         // negative range
      {1, 1, 4, 1},             // far below the threshold
      {t, 1, 4, 1},             // exactly one shard's work
      {t + 1, 1, 4, 2},         // just past it
      {3 * t, 1, 4, 3},         // ceil(range * work / t) below threads
      {3 * t + 1, 1, 4, 4},     // ... reaching threads
      {100 * t, 1, 4, 4},       // capped at threads
      {t / 4, 4, 4, 1},         // work_per_index scales the product
      {t / 4 + 1, 4, 4, 2},
      {10, 1000, 4, 1},         // 10000 units: one shard even at 4 threads
      {2, 10 * t, 4, 2},        // never more shards than indices
      {1, 10 * t, 4, 1},
      {1000, 0, 4, 1},          // zero work counts as 1 per index
      {100 * t, 1, 1, 1},       // one thread: never split
      {max, max, 4, 4},         // range * work past int64
      {max / 2, 3, 8, 8},
      {3, max, 8, 3},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(NumShards(c.range, c.work, c.threads), c.want)
        << "range " << c.range << " work " << c.work << " threads "
        << c.threads;
  }
}

TEST_F(ParallelTest, BelowThresholdRunsInlineOnCaller) {
  ThreadPool::Global().Resize(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 1000, kMinShardWork / 1000, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 1000);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_TRUE(InParallelRegion());
  });
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(InParallelRegion());
}

TEST_F(ParallelTest, GlobalPoolHasAtLeastOneThread) {
  EXPECT_GE(ThreadPool::Global().num_threads(), 1);
}

TEST_F(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool::Global().Resize(4);
  const int64_t n = 10007;  // prime: exercises uneven shard remainders
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<int> shards{0};
  ParallelFor(0, n, SplittingWork(n), [&](int64_t b, int64_t e) {
    shards.fetch_add(1);
    for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(shards.load(), 4);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ShardBoundariesAreContiguousAndOrdered) {
  ThreadPool::Global().Resize(4);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> shards;
  ParallelFor(100, 1100, SplittingWork(1000), [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    shards.emplace_back(b, e);
  });
  ASSERT_EQ(shards.size(), 4u);
  std::sort(shards.begin(), shards.end());
  EXPECT_EQ(shards.front().first, 100);
  EXPECT_EQ(shards.back().second, 1100);
  for (size_t i = 1; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i - 1].second, shards[i].first) << "gap at shard " << i;
    EXPECT_EQ(shards[i].second - shards[i].first, 250) << "shard " << i;
  }
}

TEST_F(ParallelTest, EmptyAndTinyRanges) {
  ThreadPool::Global().Resize(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range below one shard's work must collapse to one inline body call.
  ParallelFor(0, 3, 100, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelTest, PoolIsReusedAcrossManyRegions) {
  ThreadPool::Global().Resize(4);
  std::atomic<int64_t> total{0};
  std::atomic<int> shards{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(0, 256, SplittingWork(256), [&](int64_t b, int64_t e) {
      shards.fetch_add(1);
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 200 * 256);
  EXPECT_EQ(shards.load(), 200 * 4);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  ThreadPool::Global().Resize(4);
  std::atomic<int> shards{0};
  EXPECT_THROW(ParallelFor(0, 1000, SplittingWork(1000),
                           [&](int64_t b, int64_t) {
                             shards.fetch_add(1);
                             if (b >= 0) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // Each thread stops after its first throw, so 4 threads run 4 shards.
  EXPECT_EQ(shards.load(), 4);
  // The pool must stay usable after an exception drained the region.
  std::atomic<int64_t> total{0};
  shards.store(0);
  ParallelFor(0, 100, SplittingWork(100), [&](int64_t b, int64_t e) {
    shards.fetch_add(1);
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 100);
  EXPECT_EQ(shards.load(), 4);
}

TEST_F(ParallelTest, NestedParallelForRunsSerially) {
  ThreadPool::Global().Resize(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int64_t> inner_total{0};
  std::atomic<int> outer_shards{0};
  ParallelFor(0, 8, SplittingWork(8), [&](int64_t b, int64_t e) {
    outer_shards.fetch_add(1);
    EXPECT_TRUE(InParallelRegion());
    for (int64_t i = b; i < e; ++i) {
      int inner_calls = 0;
      ParallelFor(0, 50, SplittingWork(50), [&](int64_t ib, int64_t ie) {
        ++inner_calls;
        inner_total.fetch_add(ie - ib);
      });
      // Nested: exactly one inline body call covering the full range.
      EXPECT_EQ(inner_calls, 1);
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 50);
  EXPECT_EQ(outer_shards.load(), 4);
  EXPECT_FALSE(InParallelRegion());
}

TEST_F(ParallelTest, ResizeThenImmediateDispatchIsSafe) {
  // Regression: workers spawned by Resize start with seen_generation = 0.
  // If the pool's generation counter were not reset on stop, a fresh worker
  // would treat the stale counter as an already-published region, run a
  // phantom pass, and could double-decrement the active-worker count for
  // the next real region (releasing the caller while a shard is still
  // executing). Hammer Resize immediately followed by dispatches so a
  // phantom pass, if reintroduced, overlaps a real region.
  for (int round = 0; round < 50; ++round) {
    ThreadPool::Global().Resize(4);
    for (int region = 0; region < 4; ++region) {
      const int64_t n = 4096;
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      std::atomic<int> shards{0};
      ParallelFor(0, n, SplittingWork(n), [&](int64_t b, int64_t e) {
        shards.fetch_add(1);
        for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      ASSERT_EQ(shards.load(), 4) << "round " << round;
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "round " << round << " region " << region << " index " << i;
      }
    }
  }
}

TEST_F(ParallelTest, ResizeChangesThreadCount) {
  ThreadPool::Global().Resize(3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  ThreadPool::Global().Resize(1);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1);
  // Serial pool still executes work.
  int64_t sum = 0;
  ParallelFor(0, 10, SplittingWork(10), [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45);
}

}  // namespace
}  // namespace focus
