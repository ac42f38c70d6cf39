// Bounded MPMC forecast-request queue.
//
// Producers (request threads) Push one item per forecast request;
// consumers (the engine's serving workers) Pop one request at a time —
// each request is one batch-1 forward (src/serve/engine.h), so there is
// nothing to coalesce and no reason to wait for stragglers.
//
// Lock discipline: one mutex, short critical sections. The ring is
// preallocated at construction — Push/Pop move Tensor handles in and out
// of fixed slots (a refcount each way, no container growth), so the
// steady-state queue makes no allocator calls of any kind.
//
// Shutdown: Close() wakes everyone; Push fails from then on, Pop keeps
// draining what was already admitted and returns false only once the
// queue is empty — pending requests are never dropped.
#ifndef FOCUS_SERVE_REQUEST_QUEUE_H_
#define FOCUS_SERVE_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "tensor/tensor.h"

namespace focus {
namespace serve {

class PendingForecast;

// One queued forecast request. The Tensor handle keeps the caller's
// lookback window alive until the forward that reads it completes.
struct Request {
  Tensor window;                    // (N, L) lookback, all entities
  int64_t entity = -1;              // >= 0: answer only this entity's row
  PendingForecast* done = nullptr;  // caller-owned completion slot
  int64_t enqueue_ns = 0;           // steady-clock stamp at submission
};

class RequestQueue {
 public:
  explicit RequestQueue(int capacity);

  // Blocks while the queue is full. Returns false once closed (the
  // request was not admitted).
  bool Push(Request request);

  // Non-blocking admission; false when the queue is full or closed.
  bool TryPush(Request request);

  // Moves the oldest request into `out`. Blocks until one is available;
  // returns false once the queue is closed and drained.
  bool Pop(Request* out);

  // Wakes all waiters; Push fails afterwards, Pop drains the rest.
  void Close();

  int64_t depth() const;
  int capacity() const { return static_cast<int>(ring_.size()); }

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<Request> ring_;
  int64_t head_ = 0;  // index of the oldest queued request
  int64_t size_ = 0;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace focus

#endif  // FOCUS_SERVE_REQUEST_QUEUE_H_
