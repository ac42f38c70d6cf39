#include "tensor/plan_hooks.h"

#include "utils/check.h"

namespace focus {
namespace plan_hooks {

namespace internal_plan {
std::atomic<CaptureSink*> g_sink{nullptr};
}  // namespace internal_plan

void SetCaptureSink(CaptureSink* sink) {
  if (sink != nullptr) {
    FOCUS_CHECK(internal_plan::g_sink.load(std::memory_order_relaxed) ==
                nullptr)
        << "plan capture already active; captures must not nest";
  }
  internal_plan::g_sink.store(sink, std::memory_order_release);
}

void NotifyResult(const char* name, const Tensor& out) {
  CaptureSink* sink = internal_plan::g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->OnResult(name, out);
}

void NotifyUnsupported(const char* what) {
  CaptureSink* sink = internal_plan::g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->OnUnsupported(what);
}

void NotifyFree(const float* ptr) {
  CaptureSink* sink = internal_plan::g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->OnFree(ptr);
}

}  // namespace plan_hooks
}  // namespace focus
