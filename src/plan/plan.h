// Tape-free inference execution plans: capture once, replay many.
//
// ExecutionPlan::Capture() runs a model forward exactly once under the
// plan_hooks capture sink (src/tensor/plan_hooks.h) and records the
// kernel-launch sequence the eager path performed — each step carries
// the very kernel closure the eager op just ran (plan_hooks::RunStep),
// so a replay performs the identical IEEE operations in the identical
// order (bit-identity with eager by construction, on both SIMD backends
// and any thread count).
//
// Compilation then turns the recorded graph into a static program:
//
//   * Constant folding: steps whose inputs are all parameters/constants
//     (e.g. prototype embeddings re-projected every forward) execute
//     once at compile time into pinned buffers and vanish from the
//     steady-state program.
//   * Static memory planning: every intermediate gets a [def, last-use]
//     lifetime; a first-fit interval allocator packs them into ONE
//     64-byte-aligned slab leased from the caching allocator at compile
//     time. Steady-state Run() therefore makes zero tensor-allocator
//     calls (asserted in tests/plan_test.cc via AllocatorStats).
//
// Fusion is a property of the op (SoftmaxLastDim applies its scale
// inside the row sweep), so the recorded closures already run the fused
// kernels the eager forward ran and the compiler needs no fusion pass.
//
// Run() patches the caller's input pointer into the pre-resolved
// per-step buffer tables and replays the closures. The closures hold the
// SIMD kernel pointers resolved at capture, so after a backend switch a
// plan keeps running its capture-time kernels; the backends agree bit
// for bit, so the replay still equals eager under either one. A shape or
// precision change invalidates the plan — callers check Matches()
// (core::PlannedForecaster automates this).
//
// An op without a capture hook fails the capture (MakeResult notifies
// the sink of every op output; an unknown buffer means an
// uninstrumented op ran) and Capture() returns nullptr: uninstrumented
// ops are safe, never silently wrong.
//
// Limitations (documented contract): plans freeze parameter VALUES at
// capture/fold time, so they serve frozen inference models only; the
// returned output tensor is owned by the plan and overwritten by the
// next Run(). A plan replays the inference-mode forward, which writes
// nothing outside its output, so there are no side effects to replay.
#ifndef FOCUS_PLAN_PLAN_H_
#define FOCUS_PLAN_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/allocator.h"
#include "tensor/plan_hooks.h"
#include "tensor/precision.h"
#include "tensor/tensor.h"

namespace focus {
namespace plan {

// Compile-time facts about a plan, for tests / benches / reports.
struct PlanStats {
  int64_t captured_steps = 0;  // steps recorded by the eager forward
  int64_t steps = 0;           // steps in the compiled program
  int64_t folded = 0;          // steps removed by constant folding
  int64_t constants = 0;       // pinned parameter/constant buffers
  int64_t slab_bytes = 0;      // static slab size (64-byte aligned)
  int64_t flops_per_run = 0;   // FLOPs charged per Run()
  // Estimated operand traffic per Run(): sum over compiled steps of
  // every operand's numel * 4 bytes (reads + the written output).
  // Bandwidth accounting for the perf gate.
  int64_t bytes_per_run = 0;
};

class ExecutionPlan {
 public:
  using ForwardFn = std::function<Tensor(const Tensor&)>;

  // Runs `fn(example)` once under the capture sink and compiles the
  // recorded steps. Returns nullptr when the forward used an op without
  // a capture hook (the caller stays on the eager path). The forward
  // runs under InferenceModeGuard: it must be a pure inference pass.
  // Process-global: captures must not run concurrently.
  static std::unique_ptr<ExecutionPlan> Capture(const ForwardFn& fn,
                                                const Tensor& example);

  // True when `input` can be fed to Run(): same shape as the capture
  // example, and the calling thread's PrecisionMode equals the
  // capture-time mode (the ProtoAttn assignment closure differs between
  // f32 and int8proto plans).
  bool Matches(const Tensor& input) const;

  // Replays the program against `input`. Requires Matches(input).
  // Returns the plan-owned output tensor; its contents are valid until
  // the next Run(). Makes no tensor-allocator calls. Not re-entrant.
  Tensor Run(const Tensor& input);

  const PlanStats& stats() const { return stats_; }
  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }

  // Human-readable program listing: one line per step with its operand
  // bindings (slab offsets, constants, input) — for tests and debugging.
  std::string DebugLayout() const;

  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

 private:
  ExecutionPlan() = default;

  struct CompiledStep {
    std::string name;
    plan_hooks::StepFn fn;
    std::vector<float*> bufs;
    // Diagnostic operand descriptions, parallel to `bufs`.
    std::vector<std::string> operands;
  };

  Shape input_shape_;
  Shape output_shape_;
  Precision precision_ = Precision::kF32;  // ambient mode at capture
  std::vector<CompiledStep> steps_;
  // (step, operand) slots to patch with the caller's input pointer.
  std::vector<std::pair<int, int>> input_patches_;
  SlabLease slab_;
  // Pinned parameter/constant buffers (capture-time and folded).
  std::vector<Tensor> pinned_;
  Tensor output_;  // persistent output buffer, rewritten by each Run()
  PlanStats stats_;
};

}  // namespace plan
}  // namespace focus

#endif  // FOCUS_PLAN_PLAN_H_
