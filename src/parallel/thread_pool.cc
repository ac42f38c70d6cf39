#include "parallel/thread_pool.h"

#include <algorithm>
#include <limits>

#include "utils/env.h"

namespace focus {

// Least work (range * work_per_index) worth a second shard: below it a
// wake-up and join cost more than they save. On a 4-vCPU Xeon (EXPERIMENTS.md,
// "Kernel pool split rule") BM_FocusForecastEager/96 took 109 us at 1
// thread and, at 4, 167 us at 65536 and 126 at 262144; 1048576 cut
// serve_long's 2-thread training from 138 to 124 steps/s.
const int64_t kMinShardWork = 262144;

namespace {

// Set for the lifetime of a worker thread and, on the calling thread, for
// the duration of its participation in a region (including the inline
// call), so nested ParallelFor calls degrade to inline execution instead
// of deadlocking on the dispatch state.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() : saved(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~RegionGuard() { tl_in_parallel_region = saved; }
  bool saved;
};

int DefaultNumThreads() {
  // 0 means "auto" (hardware concurrency); explicit values must land in
  // [1, 256]. Garbage or out-of-range values warn and fall back to auto
  // instead of silently resizing the pool (see GetEnvIntInRangeOr).
  long n = GetEnvIntInRangeOr("FOCUS_NUM_THREADS", 0, 1, 256);
  if (n <= 0) {
    n = static_cast<long>(std::thread::hardware_concurrency());
  }
  return static_cast<int>(std::max(1L, std::min(n, 256L)));
}

}  // namespace

bool InParallelRegion() { return tl_in_parallel_region; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads_ = std::max(1, num_threads);
  StartWorkers(num_threads_ - 1);
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::StartWorkers(int num_workers) {
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  // Freshly started workers begin with seen_generation = 0. Reset the
  // dispatch state so they do not mistake a stale generation_ from before
  // the stop for a newly published region (a phantom pass could otherwise
  // race with the next region and double-decrement active_workers_).
  generation_ = 0;
  nshards_ = 0;
  next_shard_.store(0, std::memory_order_relaxed);
  body_ = nullptr;
  active_workers_ = 0;
}

void ThreadPool::Resize(int num_threads) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  StopWorkers();
  num_threads_ = std::max(1, num_threads);
  StartWorkers(num_threads_ - 1);
}

void ThreadPool::WorkOnCurrentRegion() {
  RegionGuard in_region;
  try {
    for (;;) {
      const int s = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (s >= nshards_) break;
      // The first `rem_` shards take one extra index.
      const int64_t b = begin_ + s * chunk_ + std::min<int64_t>(s, rem_);
      (*body_)(b, b + chunk_ + (s < rem_ ? 1 : 0));
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_start_.wait(lock, [&] {
      return shutdown_ || generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = generation_;
    lock.unlock();
    WorkOnCurrentRegion();
    lock.lock();
    if (--active_workers_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::RunShards(int nshards, int64_t begin, int64_t range,
                           const FunctionRef<void(int64_t, int64_t)>& body) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    begin_ = begin;
    chunk_ = range / nshards;
    rem_ = range % nshards;
    nshards_ = nshards;
    next_shard_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    active_workers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  WorkOnCurrentRegion();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return active_workers_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

int NumShards(int64_t range, int64_t work_per_index, int threads) {
  if (range <= 0) return 0;
  const int64_t work = std::max<int64_t>(1, work_per_index);
  int64_t shards = range;  // a product past int64 is over any threshold
  if (range <= std::numeric_limits<int64_t>::max() / work) {
    const int64_t total = range * work;
    shards = total / kMinShardWork + (total % kMinShardWork != 0);
  }
  return static_cast<int>(std::min<int64_t>({threads, range, shards}));
}

void ParallelFor(int64_t begin, int64_t end, int64_t work,
                 FunctionRef<void(int64_t, int64_t)> body) {
  const int64_t range = end - begin;
  if (range <= 0) return;
  ThreadPool& pool = ThreadPool::Global();
  const int nshards =
      tl_in_parallel_region ? 1 : NumShards(range, work, pool.num_threads());
  if (nshards > 1) return pool.RunShards(nshards, begin, range, body);
  // Exactly the serial code path: one body call over the full range.
  RegionGuard in_region;
  body(begin, end);
}

}  // namespace focus
