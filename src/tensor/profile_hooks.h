// Kernel-level profiling hooks.
//
// The tensor kernels (matmul / softmax / layer-norm / conv) can emit
// per-invocation profile scopes without depending on the observability
// layer: they call through a process-wide hook table that src/obs installs
// when tracing is enabled. When no hooks are installed the cost is a single
// atomic pointer load and branch per kernel call.
//
// Hook install/clear is safe against in-flight kernels: the table is
// published through an atomic pointer and a KernelProfileScope pins the
// table it observed at entry, so its end() always pairs with the begin()
// that fired — even if the hooks are swapped or cleared mid-kernel
// (FOCUS_NUM_THREADS > 1 runs kernels while e.g. a test thread toggles
// tracing). Superseded tables are intentionally leaked; installs are rare.
#ifndef FOCUS_TENSOR_PROFILE_HOOKS_H_
#define FOCUS_TENSOR_PROFILE_HOOKS_H_

#include <atomic>

namespace focus {

struct KernelProfileHooks {
  // Called at kernel entry with a static-lifetime name ("kernel/matmul").
  void (*begin)(const char* name) = nullptr;
  // Called at kernel exit; strictly LIFO with respect to begin().
  void (*end)() = nullptr;
};

// Installs (or, with default-constructed hooks, clears) the process-wide
// kernel hooks. May be called at any time, including while kernels run.
void SetKernelProfileHooks(KernelProfileHooks hooks);

namespace internal_profile {
// nullptr when no hooks are installed; otherwise an immutable, leaked table.
extern std::atomic<const KernelProfileHooks*> g_hooks;
}  // namespace internal_profile

// RAII scope a kernel places around its compute loop. The constructor
// snapshots the installed table so begin/end fire as a matched pair.
class KernelProfileScope {
 public:
  explicit KernelProfileScope(const char* name) {
    const KernelProfileHooks* hooks =
        internal_profile::g_hooks.load(std::memory_order_acquire);
    if (hooks != nullptr && hooks->begin != nullptr) {
      hooks->begin(name);
      hooks_ = hooks;
    }
  }
  ~KernelProfileScope() {
    if (hooks_ != nullptr && hooks_->end != nullptr) hooks_->end();
  }
  KernelProfileScope(const KernelProfileScope&) = delete;
  KernelProfileScope& operator=(const KernelProfileScope&) = delete;

 private:
  const KernelProfileHooks* hooks_ = nullptr;
};

}  // namespace focus

#define FOCUS_KERNEL_SCOPE(name) \
  ::focus::KernelProfileScope focus_kernel_profile_scope_(name)

#endif  // FOCUS_TENSOR_PROFILE_HOOKS_H_
