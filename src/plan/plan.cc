// ExecutionPlan implementation: recorder sink, constant folding,
// lifetime-packed slab layout, replay loop.
//
// Value identity during recording is "current value for buffer pointer":
// the allocator recycles buffers, so a raw pointer can name different
// logical tensors over the forward. Each recorded output OVERWRITES the
// pointer's mapping; a lookup can therefore never resolve to a stale
// value — an eager op holds its input tensors alive while it runs, so a
// freed (recyclable) buffer cannot reappear as a later step's input. A
// pointer with no mapping is a parameter/constant: it is pinned (the
// plan holds a detached tensor sharing the buffer) so the address stays
// valid for the plan's lifetime. Aliasing ops (Reshape/Detach) share
// the producer's buffer and thus resolve to the producer's value.
#include "plan/plan.h"

#include <unordered_map>

#include "obs/trace.h"
#include "tensor/flops.h"
#include "utils/logging.h"

namespace focus {
namespace plan {

namespace {

// 64-byte slab alignment, in floats (one cache line, two AVX2 lanes).
constexpr int64_t kAlignFloats = 16;

int64_t AlignUp(int64_t numel) {
  return (numel + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

struct Value {
  enum Kind { kInput, kConstant, kTemp, kScratch };
  Kind kind = kTemp;
  int64_t numel = 0;
  Tensor pinned;         // keeps constant buffers alive
  int64_t offset = -1;   // slab offset (floats) for temps/scratch
};

struct Step {
  std::string name;
  std::vector<int> inputs;
  int output = -1;
  std::vector<int> scratch;
  plan_hooks::StepFn fn;
};

class Recorder : public plan_hooks::CaptureSink {
 public:
  explicit Recorder(const Tensor& example) {
    Value v;
    v.kind = Value::kInput;
    v.numel = example.numel();
    v.pinned = example.Detach();  // keep the example buffer alive
    values_.push_back(std::move(v));
    map_[example.data()] = 0;
  }

  void OnStep(plan_hooks::StepRecord rec) override {
    if (failed_) return;
    Step step;
    step.name = rec.name;
    step.fn = std::move(rec.fn);
    for (const Tensor& in : rec.inputs) {
      step.inputs.push_back(LookupOrPin(in));
    }
    Value out;
    out.kind = Value::kTemp;
    out.numel = rec.output.numel();
    const int out_id = static_cast<int>(values_.size());
    values_.push_back(std::move(out));
    map_[rec.output.data()] = out_id;  // overwrite: recycling-safe
    step.output = out_id;
    for (int64_t numel : rec.scratch_numels) {
      Value s;
      s.kind = Value::kScratch;
      s.numel = numel;
      step.scratch.push_back(static_cast<int>(values_.size()));
      values_.push_back(std::move(s));
    }
    steps_.push_back(std::move(step));
  }

  void OnResult(const char* name, const Tensor& out) override {
    if (failed_ || out.numel() == 0) return;
    if (map_.find(out.data()) == map_.end()) {
      Fail(std::string("uninstrumented op '") + name + "'");
    }
  }

  void OnUnsupported(const char* what) override {
    Fail(std::string("unsupported op '") + what + "'");
  }

  void OnFree(const float* ptr) override {
    // A dead intermediate's address can be recycled into an unrelated
    // tensor (e.g. a factory-made kernel weight); its mapping must not
    // survive the buffer.
    map_.erase(ptr);
  }

  // -1 when the pointer is unknown (result didn't come from a step).
  int Find(const float* ptr) const {
    auto it = map_.find(ptr);
    return it == map_.end() ? -1 : it->second;
  }

  bool failed() const { return failed_; }
  const std::string& fail_reason() const { return fail_reason_; }
  std::vector<Value>& values() { return values_; }
  std::vector<Step>& steps() { return steps_; }

 private:
  int LookupOrPin(const Tensor& t) {
    auto it = map_.find(t.data());
    if (it != map_.end()) return it->second;
    // Never recorded: a parameter or a factory-made constant. Pin the
    // buffer so the captured address outlives the capture.
    Value v;
    v.kind = Value::kConstant;
    v.numel = t.numel();
    v.pinned = t.Detach();
    const int id = static_cast<int>(values_.size());
    values_.push_back(std::move(v));
    map_[t.data()] = id;
    return id;
  }

  void Fail(std::string reason) {
    if (!failed_) {
      failed_ = true;
      fail_reason_ = std::move(reason);
    }
  }

  std::vector<Value> values_;
  std::vector<Step> steps_;
  std::unordered_map<const float*, int> map_;
  bool failed_ = false;
  std::string fail_reason_;
};

// RAII sink installation so a CHECK-failure path can't leak the sink.
class SinkScope {
 public:
  explicit SinkScope(plan_hooks::CaptureSink* sink) {
    plan_hooks::SetCaptureSink(sink);
  }
  ~SinkScope() { plan_hooks::SetCaptureSink(nullptr); }
};

// First-fit free-list over slab extents (offsets/sizes in floats).
class SlabPacker {
 public:
  int64_t Alloc(int64_t size) {
    for (size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].size >= size) {
        const int64_t off = free_[i].off;
        free_[i].off += size;
        free_[i].size -= size;
        if (free_[i].size == 0) {
          free_.erase(free_.begin() + static_cast<int64_t>(i));
        }
        return off;
      }
    }
    const int64_t off = end_;
    end_ += size;
    return off;
  }

  void Free(int64_t off, int64_t size) {
    // Insert sorted by offset, then coalesce with both neighbours.
    size_t i = 0;
    while (i < free_.size() && free_[i].off < off) ++i;
    free_.insert(free_.begin() + static_cast<int64_t>(i), {off, size});
    if (i + 1 < free_.size() &&
        free_[i].off + free_[i].size == free_[i + 1].off) {
      free_[i].size += free_[i + 1].size;
      free_.erase(free_.begin() + static_cast<int64_t>(i) + 1);
    }
    if (i > 0 &&
        free_[i - 1].off + free_[i - 1].size == free_[i].off) {
      free_[i - 1].size += free_[i].size;
      free_.erase(free_.begin() + static_cast<int64_t>(i));
    }
  }

  int64_t total() const { return end_; }

 private:
  struct Extent {
    int64_t off, size;
  };
  std::vector<Extent> free_;
  int64_t end_ = 0;
};

}  // namespace

std::unique_ptr<ExecutionPlan> ExecutionPlan::Capture(
    const ForwardFn& fn, const Tensor& example) {
  FOCUS_CHECK(example.defined()) << "plan capture needs an example input";

  Recorder rec(example);
  const int64_t flops0 = FlopCounter::Count();
  Tensor result;
  {
    InferenceModeGuard inference;
    SinkScope scope(&rec);
    result = fn(example);
  }
  const int64_t flops_per_run = FlopCounter::Count() - flops0;
  if (rec.failed()) {
    FOCUS_LOG(Warning) << "plan capture failed (" << rec.fail_reason()
                       << "); staying on the eager path";
    return nullptr;
  }
  FOCUS_CHECK(result.defined()) << "plan capture: forward returned null";
  const int out_id = rec.Find(result.data());
  std::vector<Value>& values = rec.values();
  std::vector<Step>& steps = rec.steps();
  if (out_id < 0 || values[static_cast<size_t>(out_id)].kind !=
                        Value::kTemp) {
    FOCUS_LOG(Warning) << "plan capture failed (output is not a step "
                          "product); staying on the eager path";
    return nullptr;
  }

  std::unique_ptr<ExecutionPlan> plan(new ExecutionPlan());
  plan->input_shape_ = example.shape();
  plan->output_shape_ = result.shape();
  plan->precision_ = PrecisionMode::Get();
  plan->stats_.captured_steps = static_cast<int64_t>(steps.size());
  plan->stats_.flops_per_run = flops_per_run;

  // --- Constant folding: a step fed only by constants computes the
  // same bytes every run; execute it now into a pinned buffer and drop
  // it from the program. One forward pass suffices — folding a step can
  // only enable folding of LATER steps (defs precede uses).
  std::vector<Step> kept;
  kept.reserve(steps.size());
  for (Step& step : steps) {
    bool all_const = step.output != out_id;
    for (int in : step.inputs) {
      all_const = all_const &&
                  values[static_cast<size_t>(in)].kind == Value::kConstant;
    }
    if (!all_const) {
      kept.push_back(std::move(step));
      continue;
    }
    Value& out = values[static_cast<size_t>(step.output)];
    out.pinned = Tensor::Empty({out.numel});
    std::vector<Tensor> scratch_bufs;
    std::vector<float*> bufs;
    for (int in : step.inputs) {
      bufs.push_back(const_cast<float*>(
          values[static_cast<size_t>(in)].pinned.data()));
    }
    bufs.push_back(out.pinned.data());
    for (int sid : step.scratch) {
      scratch_bufs.push_back(
          Tensor::Empty({values[static_cast<size_t>(sid)].numel}));
      bufs.push_back(scratch_bufs.back().data());
    }
    step.fn(bufs.data());
    out.kind = Value::kConstant;
    ++plan->stats_.folded;
  }
  steps = std::move(kept);

  // --- Liveness: def/last-use step index per value, then first-fit
  // interval packing into one slab.
  const size_t nvalues = values.size();
  const int nsteps = static_cast<int>(steps.size());
  std::vector<int> def(nvalues, -1), last(nvalues, -1);
  for (int i = 0; i < nsteps; ++i) {
    def[static_cast<size_t>(steps[static_cast<size_t>(i)].output)] = i;
    for (int sid : steps[static_cast<size_t>(i)].scratch) {
      def[static_cast<size_t>(sid)] = i;
      last[static_cast<size_t>(sid)] = i;
    }
    for (int in : steps[static_cast<size_t>(i)].inputs) {
      last[static_cast<size_t>(in)] = i;
    }
  }
  last[static_cast<size_t>(out_id)] = nsteps;  // output outlives the run

  SlabPacker packer;
  for (int i = 0; i < nsteps; ++i) {
    for (size_t v = 0; v < nvalues; ++v) {
      if (def[v] != i) continue;
      Value& val = values[v];
      if (val.kind != Value::kTemp && val.kind != Value::kScratch) {
        continue;
      }
      if (static_cast<int>(v) == out_id) continue;  // persistent
      val.offset = packer.Alloc(AlignUp(val.numel));
    }
    for (size_t v = 0; v < nvalues; ++v) {
      if (last[v] != i || def[v] < 0) continue;
      const Value& val = values[v];
      if (val.offset < 0) continue;
      packer.Free(val.offset, AlignUp(val.numel));
    }
  }

  // --- Bindings: one resolved float* table per step; input slots are
  // patched per Run(). Allocate the slab and output buffer LAST so the
  // steady-state invariant (zero allocator calls in Run) is the only
  // allocator traffic compile leaves behind.
  plan->slab_ = SlabLease(packer.total());
  plan->output_ = Tensor::Empty(result.shape());
  plan->stats_.slab_bytes =
      packer.total() * static_cast<int64_t>(sizeof(float));
  float* slab = plan->slab_.data();

  auto resolve = [&](int id, std::string* desc) -> float* {
    const Value& v = values[static_cast<size_t>(id)];
    if (id == out_id) {
      *desc = "out";
      return plan->output_.data();
    }
    switch (v.kind) {
      case Value::kInput:
        *desc = "arg";
        return nullptr;  // patched per Run
      case Value::kConstant:
        *desc = "const[" + std::to_string(v.numel) + "]";
        return const_cast<float*>(v.pinned.data());
      case Value::kTemp:
      case Value::kScratch:
        // "slab+<byte offset>[<numel>]" — tests parse this to check
        // that operand ranges within a step never overlap.
        *desc = "slab+" +
                std::to_string(v.offset *
                               static_cast<int64_t>(sizeof(float))) +
                "[" + std::to_string(v.numel) + "]";
        return slab + v.offset;
    }
    return nullptr;
  };

  for (int i = 0; i < nsteps; ++i) {
    Step& step = steps[static_cast<size_t>(i)];
    CompiledStep cs;
    cs.name = step.name;
    cs.fn = std::move(step.fn);
    std::vector<int> ids = step.inputs;
    ids.push_back(step.output);
    ids.insert(ids.end(), step.scratch.begin(), step.scratch.end());
    for (size_t a = 0; a < ids.size(); ++a) {
      std::string desc;
      float* p = resolve(ids[a], &desc);
      plan->stats_.bytes_per_run +=
          values[static_cast<size_t>(ids[a])].numel *
          static_cast<int64_t>(sizeof(float));
      if (values[static_cast<size_t>(ids[a])].kind == Value::kInput) {
        plan->input_patches_.emplace_back(i, static_cast<int>(a));
      }
      // The written operand is prefixed "->" (and scratch "~") so tests
      // can reconstruct buffer lifetimes from the listing alone.
      if (a == step.inputs.size()) desc = "->" + desc;
      if (a > step.inputs.size()) desc = "~" + desc;
      cs.bufs.push_back(p);
      cs.operands.push_back(std::move(desc));
    }
    plan->steps_.push_back(std::move(cs));
  }
  plan->stats_.steps = nsteps;
  for (const Value& v : values) {
    if (v.kind == Value::kConstant) ++plan->stats_.constants;
  }
  // Pin constant tensors on the plan (the recorder dies with Capture).
  for (Value& v : values) {
    if (v.kind == Value::kConstant && v.pinned.defined()) {
      plan->pinned_.push_back(std::move(v.pinned));
    }
  }
  return plan;
}

bool ExecutionPlan::Matches(const Tensor& input) const {
  return input.defined() && input.shape() == input_shape_ &&
         PrecisionMode::Get() == precision_;
}

Tensor ExecutionPlan::Run(const Tensor& input) {
  FOCUS_CHECK(Matches(input))
      << "plan guard: input " << ShapeToString(input.shape())
      << " does not match plan (compiled for "
      << ShapeToString(input_shape_)
      << "); callers must check Matches() and fall back to eager";
  obs::TraceSpan::Options span_opts;
  span_opts.planned = true;
  obs::TraceSpan span("plan/run", span_opts);
  float* in = const_cast<float*>(input.data());
  for (const auto& [step, arg] : input_patches_) {
    steps_[static_cast<size_t>(step)]
        .bufs[static_cast<size_t>(arg)] = in;
  }
  for (CompiledStep& step : steps_) {
    step.fn(step.bufs.data());
  }
  // One bulk charge of the captured forward's FLOPs (includes folded
  // steps, keeping planned FLOP accounting comparable with eager).
  FlopCounter::Add(stats_.flops_per_run);
  return output_;
}

std::string ExecutionPlan::DebugLayout() const {
  std::string out = "plan: " + std::to_string(steps_.size()) +
                    " steps, slab " +
                    std::to_string(stats_.slab_bytes) + " B, " +
                    std::to_string(stats_.constants) + " constants, " +
                    std::to_string(stats_.folded) + " folded\n";
  for (size_t i = 0; i < steps_.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + steps_[i].name + "(";
    for (size_t a = 0; a < steps_[i].operands.size(); ++a) {
      if (a > 0) out += ", ";
      out += steps_[i].operands[a];
    }
    out += ")\n";
  }
  return out;
}

}  // namespace plan
}  // namespace focus
