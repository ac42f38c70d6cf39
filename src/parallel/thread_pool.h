// Shared thread pool and the ParallelFor primitive every parallel kernel
// in the tensor library runs on.
//
// Design goals, in priority order:
//
//  1. Determinism. A ParallelFor's split is a pure function of (begin,
//     end, work_per_index, pool size). Shards never share mutable state
//     in the kernels built on top, and no kernel's floating-point order
//     per output element depends on shard boundaries, so outputs are
//     bit-identical for every FOCUS_NUM_THREADS (tests/parity_test.cc).
//  2. One module decides when to split. A call site states only the work
//     one index carries, from shapes it already has (a matmul task:
//     rows*k*n multiply-adds; a streamed element: kStreamWork); NumShards
//     weighs it against the one minimum-work-per-shard constant.
//  3. Zero cost when unused. One thread, or at most one shard's work, wakes
//     no worker: the body runs once, inline, over the full range. Bodies
//     pass as a FunctionRef, so no call allocates.
//  4. Reuse. Workers are created once (lazily, on first Global() use) and
//     parked on a condition variable between regions; a dispatch is two
//     lock acquisitions plus one broadcast.
//
// FOCUS_NUM_THREADS (read at first use; unset or invalid: the hardware
// concurrency) sizes the pool; the caller always takes part, so a pool of
// N holds N-1 workers. A ParallelFor nested inside a region runs inline.
// The first exception a body throws is rethrown on the caller after all
// shards finish.
#ifndef FOCUS_PARALLEL_THREAD_POOL_H_
#define FOCUS_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace focus {

// Non-owning reference to a callable that outlives the call; never allocates.
template <typename Sig>
class FunctionRef;
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
  FunctionRef(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* o, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(o))(args...);
        }) {}
  R operator()(Args... args) const { return call_(obj_, args...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

class ThreadPool {
 public:
  // Lazily constructed process-wide pool (leaked; never destroyed, so
  // kernels in static destructors and atexit flushes stay safe).
  static ThreadPool& Global();

  // Total parallelism including the calling thread (>= 1).
  int num_threads() const { return num_threads_; }

  // Joins the workers and restarts the pool with `num_threads` threads.
  // Not from inside a region, nor concurrently with a ParallelFor on
  // another thread (which reads the thread count unlocked).
  void Resize(int num_threads);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  friend void ParallelFor(int64_t, int64_t, int64_t,
                          FunctionRef<void(int64_t, int64_t)>);
  explicit ThreadPool(int num_threads);

  // Runs body over nshards >= 2 slices of [begin, begin + range).
  void RunShards(int nshards, int64_t begin, int64_t range,
                 const FunctionRef<void(int64_t, int64_t)>& body);

  void StartWorkers(int num_workers);
  void StopWorkers();
  void WorkerLoop();
  // Claims shards from the current region until none remain; records the
  // first exception instead of propagating.
  void WorkOnCurrentRegion();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // Serializes whole parallel regions issued from different user threads.
  std::mutex run_mu_;

  // Protects the dispatch state below.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  int active_workers_ = 0;
  bool shutdown_ = false;
  const FunctionRef<void(int64_t, int64_t)>* body_ = nullptr;
  int64_t begin_ = 0, chunk_ = 0, rem_ = 0;
  int nshards_ = 0;
  std::atomic<int> next_shard_{0};
  std::exception_ptr error_;
};

// True while the calling thread runs a ParallelFor body (workers and the
// participating caller); nested ParallelFor calls then run inline.
bool InParallelRegion();

// Work per element of a streamed sweep (elementwise, reductions, row
// kernels) in multiply-add units; measured in EXPERIMENTS.md.
inline constexpr int64_t kStreamWork = 4;

// Minimum range * work_per_index one shard carries (thread_pool.cc).
extern const int64_t kMinShardWork;

// min(threads, range, ceil(range * work_per_index / kMinShardWork)), or
// 0 for an empty range; a product past int64 counts as above threshold.
int NumShards(int64_t range, int64_t work_per_index, int threads);

// Runs body(shard_begin, shard_end) over NumShards(end - begin,
// work_per_index, num_threads()) contiguous shards of [begin, end). One
// shard (little work, one thread, or a nested call) is one inline call.
void ParallelFor(int64_t begin, int64_t end, int64_t work_per_index,
                 FunctionRef<void(int64_t, int64_t)> body);

}  // namespace focus

#endif  // FOCUS_PARALLEL_THREAD_POOL_H_
