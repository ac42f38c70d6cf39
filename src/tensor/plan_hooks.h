// Capture hooks for tape-free execution plans (src/plan).
//
// Every instrumented op site in ops_*.cc (and ProtoAttn's assignment
// step) runs its kernel through RunStep: one closure that reads and
// writes caller-supplied raw buffers. The eager path runs the closure
// on the eager buffers; when a plan capture is active (a CaptureSink is
// installed), the same object is recorded as a StepRecord with the
// step's input/output tensors. The closure captures resolved shapes,
// grains, scalars and (for some ops) kernel pointers by value — never
// buffer addresses — so the plan compiler can rebind it onto slab
// offsets and per-call input pointers. A plan replay therefore performs the
// identical IEEE operations in the identical order: bit-identity with
// eager holds by construction, for both SIMD backends and any thread
// count. Fusion is a property of the op (e.g. SoftmaxLastDim's scale),
// so a plan inherits it from the record.
//
// Only RunStep can construct a StepRecord, so no op can hand a capture
// a replay body other than the kernel it just ran.
//
// MakeResult() additionally notifies the sink of every op output; an
// output the sink has never seen (an op without a RunStep, e.g.
// Conv2d) marks the capture as failed, and the caller falls back to
// eager execution permanently for that (model, shape). This makes
// uninstrumented ops safe rather than silently wrong.
//
// All hooks are no-ops (one relaxed pointer load) when no sink is
// installed. Captures are process-global and must not run concurrently.
#ifndef FOCUS_TENSOR_PLAN_HOOKS_H_
#define FOCUS_TENSOR_PLAN_HOOKS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace focus {
namespace plan_hooks {

// Replay closure: bufs holds one float* per recorded tensor, in the
// order [inputs..., output, scratch...]. Buffers are distinct (plans
// never alias step operands) and sized to the recorded numels.
using StepFn = std::function<void(float* const* bufs)>;

// Runs an op's kernel `fn` on the eager buffers, bound as a replay binds
// them ([inputs..., output, scratch...]), then records that same object
// as the replay step when a capture is active: eager and planned
// execution share one kernel body. `scratch` names extra buffers the
// kernel writes besides its output (LayerNorm's per-row statistics,
// which its backward reads); a plan records only their sizes and gives
// the step slab scratch instead. Defined below CaptureSink, which it
// calls.
template <typename Fn>
void RunStep(const char* name, std::vector<Tensor> inputs, Tensor& out,
             Fn fn, std::initializer_list<std::vector<float>*> scratch = {});

class StepRecord {
 public:
  const char* name;  // static-lifetime op label, for diagnostics
  std::vector<Tensor> inputs;
  Tensor output;
  // Extra per-call scratch buffers (floats); lifetime is the step only.
  std::vector<int64_t> scratch_numels;
  StepFn fn;

 private:
  template <typename Fn>
  friend void RunStep(const char* name, std::vector<Tensor> inputs,
                      Tensor& out, Fn fn,
                      std::initializer_list<std::vector<float>*> scratch);

  StepRecord(const char* name, std::vector<Tensor> inputs, Tensor output,
             std::vector<int64_t> scratch_numels, StepFn fn)
      : name(name),
        inputs(std::move(inputs)),
        output(std::move(output)),
        scratch_numels(std::move(scratch_numels)),
        fn(std::move(fn)) {}
};

class CaptureSink {
 public:
  virtual ~CaptureSink() = default;
  virtual void OnStep(StepRecord step) = 0;
  // Called from MakeResult for every op output (after the op's own
  // OnStep, if any). Unknown output buffer => capture failure.
  virtual void OnResult(const char* name, const Tensor& out) = 0;
  // An op that cannot be captured at all (in-place mutation).
  virtual void OnUnsupported(const char* what) = 0;
  // A tracked tensor buffer was returned to the allocator. The sink
  // must drop any pointer-keyed state for it: the allocator recycles
  // buffers, so a later unrelated tensor (e.g. a factory-made constant)
  // can reuse the address of a dead intermediate.
  virtual void OnFree(const float* ptr) = 0;
};

namespace internal_plan {
extern std::atomic<CaptureSink*> g_sink;
}  // namespace internal_plan

inline bool CaptureActive() {
  return internal_plan::g_sink.load(std::memory_order_relaxed) != nullptr;
}

// Installs/clears the process-global sink. Passing a sink while one is
// installed is a CHECK failure (captures must not nest).
void SetCaptureSink(CaptureSink* sink);

void NotifyResult(const char* name, const Tensor& out);
void NotifyUnsupported(const char* what);
void NotifyFree(const float* ptr);

template <typename Fn>
void RunStep(const char* name, std::vector<Tensor> inputs, Tensor& out,
             Fn fn, std::initializer_list<std::vector<float>*> scratch) {
  std::vector<float*> bufs;
  bufs.reserve(inputs.size() + 1 + scratch.size());
  for (const Tensor& t : inputs) bufs.push_back(const_cast<float*>(t.data()));
  bufs.push_back(out.data());
  for (std::vector<float>* s : scratch) bufs.push_back(s->data());
  fn(bufs.data());
  CaptureSink* sink = internal_plan::g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  std::vector<int64_t> scratch_numels;
  for (std::vector<float>* s : scratch) {
    scratch_numels.push_back(static_cast<int64_t>(s->size()));
  }
  sink->OnStep(StepRecord(name, std::move(inputs), out,
                          std::move(scratch_numels), std::move(fn)));
}

// Shard grain every elementwise op uses for ParallelFor.
inline constexpr int64_t kElemGrain = 16384;

// Row-sharding grain for softmax/layernorm-style row kernels.
inline int64_t RowGrain(int64_t n) {
  return std::max<int64_t>(1, 4096 / (n + 1));
}

}  // namespace plan_hooks
}  // namespace focus

#endif  // FOCUS_TENSOR_PLAN_HOOKS_H_
