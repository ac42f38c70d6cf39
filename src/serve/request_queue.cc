#include "serve/request_queue.h"

#include <utility>

#include "utils/check.h"

namespace focus {
namespace serve {

RequestQueue::RequestQueue(int capacity) {
  FOCUS_CHECK_GT(capacity, 0) << "request queue needs capacity >= 1";
  ring_.resize(static_cast<size_t>(capacity));
}

bool RequestQueue::Push(Request request) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] {
      return size_ < static_cast<int64_t>(ring_.size()) || closed_;
    });
    if (closed_) return false;
    ring_[static_cast<size_t>((head_ + size_) %
                              static_cast<int64_t>(ring_.size()))] =
        std::move(request);
    ++size_;
  }
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::TryPush(Request request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || size_ >= static_cast<int64_t>(ring_.size())) return false;
    ring_[static_cast<size_t>((head_ + size_) %
                              static_cast<int64_t>(ring_.size()))] =
        std::move(request);
    ++size_;
  }
  not_empty_.notify_one();
  return true;
}

bool RequestQueue::Pop(Request* out) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0) return false;  // closed and fully drained
    Request& slot = ring_[static_cast<size_t>(head_)];
    *out = std::move(slot);
    slot = Request{};  // drop the window reference promptly
    head_ = (head_ + 1) % static_cast<int64_t>(ring_.size());
    --size_;
  }
  not_full_.notify_one();
  return true;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

int64_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

}  // namespace serve
}  // namespace focus
