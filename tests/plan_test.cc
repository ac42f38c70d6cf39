// Tests for tape-free inference execution plans (src/plan): capture
// determinism, bit-identity of the replayed program against the eager
// forward, the slab lifetime solver's non-overlap property (reconstructed
// from the DebugLayout listing), the zero-allocator-calls steady-state
// invariant, shape-guard fallback, fused-vs-unfused bit-identity, and the
// fail-safe nullptr return for forwards that use uninstrumented ops.
#include "plan/plan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/focus_model.h"
#include "core/planned_forecaster.h"
#include "obs/metrics_registry.h"
#include "parallel/thread_pool.h"
#include "tensor/allocator.h"
#include "tensor/ops.h"
#include "tensor/simd/vec.h"
#include "tensor/tensor.h"
#include "tests/conv2d_model.h"

namespace focus {
namespace {

using core::FocusConfig;
using core::FocusModel;
using core::PlannedForecaster;
using plan::ExecutionPlan;

Tensor MakePrototypes(int64_t k, int64_t p, uint64_t seed) {
  Rng rng(seed);
  Tensor protos = Tensor::Randn({k, p}, rng);
  for (int64_t j = 0; j < k; ++j) {
    float* row = protos.data() + j * p;
    float mean = 0;
    for (int64_t d = 0; d < p; ++d) mean += row[d];
    mean /= p;
    for (int64_t d = 0; d < p; ++d) row[d] -= mean;
  }
  return protos;
}

FocusConfig SmallConfig() {
  FocusConfig cfg;
  cfg.lookback = 32;
  cfg.horizon = 8;
  cfg.num_entities = 3;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 11;
  return cfg;
}

std::unique_ptr<FocusModel> SmallModel() {
  auto model =
      std::make_unique<FocusModel>(SmallConfig(), MakePrototypes(4, 8, 19));
  model->SetTraining(false);
  return model;
}

void ExpectSameBytes(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

TEST(PlanTest, CaptureCompilesFocusForward) {
  auto model = SmallModel();
  Rng rng(3);
  Tensor x = Tensor::Randn({2, 3, 32}, rng);
  auto plan = ExecutionPlan::Capture(
      [&](const Tensor& in) { return model->Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->input_shape(), (Shape{2, 3, 32}));
  EXPECT_EQ(plan->output_shape(), (Shape{2, 3, 8}));
  EXPECT_GT(plan->stats().captured_steps, 0);
  EXPECT_GT(plan->stats().steps, 0);
  // ProtoAttn re-projects its prototypes from constants every eager
  // forward; folding must have removed at least one such step.
  EXPECT_GT(plan->stats().folded, 0);
  EXPECT_GT(plan->stats().fused, 0);
  EXPECT_GT(plan->stats().slab_bytes, 0);
  EXPECT_GT(plan->stats().flops_per_run, 0);
  EXPECT_EQ(plan->stats().steps, plan->stats().captured_steps -
                                     plan->stats().folded -
                                     plan->stats().fused);
}

TEST(PlanTest, PlannedRunBitIdenticalToEager) {
  auto model = SmallModel();
  Rng rng(4);
  Tensor x = Tensor::Randn({2, 3, 32}, rng);
  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = model->Forward(x);
  }
  auto plan = ExecutionPlan::Capture(
      [&](const Tensor& in) { return model->Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  ExpectSameBytes(plan->Run(x), eager, "first replay vs eager");
  ExpectSameBytes(plan->Run(x), eager, "second replay vs eager");
}

TEST(PlanTest, CaptureIsDeterministic) {
  auto model = SmallModel();
  Rng rng(5);
  Tensor x = Tensor::Randn({1, 3, 32}, rng);
  auto fn = [&](const Tensor& in) { return model->Forward(in); };
  auto a = ExecutionPlan::Capture(fn, x);
  auto b = ExecutionPlan::Capture(fn, x);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Same model + shape -> the same program: step sequence, slab layout,
  // fold/fuse decisions, and FLOP accounting all match.
  EXPECT_EQ(a->DebugLayout(), b->DebugLayout());
  EXPECT_EQ(a->stats().captured_steps, b->stats().captured_steps);
  EXPECT_EQ(a->stats().slab_bytes, b->stats().slab_bytes);
  EXPECT_EQ(a->stats().flops_per_run, b->stats().flops_per_run);
  ExpectSameBytes(a->Run(x), b->Run(x), "two plans of the same forward");
}

// ---------------------------------------------------------------------------
// Slab lifetime property check, reconstructed from DebugLayout.
//
// Operand grammar: "arg" (the patched input), "out" (persistent output),
// "const[n]", and "slab+<bytes>[<numel>]". The written operand carries a
// "->" prefix, step-private scratch a "~" prefix. A slab range is live
// from its "->" definition to its last read before the next definition of
// the same range; scratch lives for its single step. Two byte-overlapping
// ranges must never be live at the same step.

struct SlabRange {
  int64_t begin = 0;  // bytes
  int64_t end = 0;
};

struct SlabSegment {
  SlabRange range;
  int first_step = 0;
  int last_step = 0;
};

bool ParseSlabOperand(std::string tok, bool* is_def, bool* is_scratch,
                      SlabRange* r) {
  *is_def = tok.rfind("->", 0) == 0;
  if (*is_def) tok = tok.substr(2);
  *is_scratch = !tok.empty() && tok[0] == '~';
  if (*is_scratch) tok = tok.substr(1);
  if (tok.rfind("slab+", 0) != 0) return false;
  const size_t lb = tok.find('[');
  const size_t rb = tok.find(']');
  EXPECT_NE(lb, std::string::npos) << tok;
  EXPECT_NE(rb, std::string::npos) << tok;
  const int64_t bytes = std::strtoll(tok.c_str() + 5, nullptr, 10);
  const int64_t numel = std::strtoll(tok.c_str() + lb + 1, nullptr, 10);
  r->begin = bytes;
  r->end = bytes + numel * static_cast<int64_t>(sizeof(float));
  return true;
}

bool BytesOverlap(const SlabRange& a, const SlabRange& b) {
  return a.begin < b.end && b.begin < a.end;
}

TEST(PlanTest, SlabLifetimesNeverOverlap) {
  auto model = SmallModel();
  Rng rng(6);
  Tensor x = Tensor::Randn({2, 3, 32}, rng);
  auto plan = ExecutionPlan::Capture(
      [&](const Tensor& in) { return model->Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  const std::string layout = plan->DebugLayout();

  // Split the listing into per-step operand token lists.
  std::vector<std::vector<std::string>> steps;
  size_t pos = layout.find('\n');
  ASSERT_NE(pos, std::string::npos);
  while (pos != std::string::npos) {
    const size_t next = layout.find('\n', pos + 1);
    std::string line = layout.substr(pos + 1, next - pos - 1);
    pos = next;
    const size_t lp = line.find('(');
    if (lp == std::string::npos) continue;
    const size_t rp = line.rfind(')');
    ASSERT_NE(rp, std::string::npos) << line;
    std::string ops = line.substr(lp + 1, rp - lp - 1);
    std::vector<std::string> toks;
    size_t start = 0;
    while (start <= ops.size() && !ops.empty()) {
      size_t comma = ops.find(", ", start);
      toks.push_back(ops.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 2;
    }
    steps.push_back(std::move(toks));
  }
  ASSERT_EQ(static_cast<int64_t>(steps.size()), plan->stats().steps);

  // Reconstruct live segments. `open` maps an exact byte range to its
  // current segment; a read must hit an open segment exactly.
  std::vector<SlabSegment> closed;
  std::vector<SlabSegment> open;
  auto find_open = [&](const SlabRange& r) -> SlabSegment* {
    for (SlabSegment& s : open) {
      if (s.range.begin == r.begin && s.range.end == r.end) return &s;
    }
    return nullptr;
  };
  const int64_t slab_bytes = plan->stats().slab_bytes;
  for (int i = 0; i < static_cast<int>(steps.size()); ++i) {
    for (const std::string& tok : steps[static_cast<size_t>(i)]) {
      bool is_def = false, is_scratch = false;
      SlabRange r;
      if (!ParseSlabOperand(tok, &is_def, &is_scratch, &r)) continue;
      ASSERT_GE(r.begin, 0) << "step " << i;
      ASSERT_LE(r.end, slab_bytes) << "step " << i;
      ASSERT_EQ(r.begin % 64, 0) << "unaligned slab offset at step " << i;
      if (is_def) {
        // Re-definition of an exact range closes the previous segment.
        SlabSegment* prev = find_open(r);
        if (prev != nullptr) {
          closed.push_back(*prev);
          *prev = SlabSegment{r, i, i};
        } else {
          open.push_back(SlabSegment{r, i, i});
        }
      } else if (is_scratch) {
        closed.push_back(SlabSegment{r, i, i});
      } else {
        SlabSegment* seg = find_open(r);
        ASSERT_NE(seg, nullptr)
            << "step " << i << " reads undefined slab range " << tok;
        seg->last_step = i;
      }
    }
  }
  for (const SlabSegment& s : open) closed.push_back(s);

  // The property: byte-overlapping segments have disjoint step intervals
  // (not even a shared boundary step — the packer allocates a step's
  // definitions before freeing its dying inputs).
  for (size_t a = 0; a < closed.size(); ++a) {
    for (size_t b = a + 1; b < closed.size(); ++b) {
      if (!BytesOverlap(closed[a].range, closed[b].range)) continue;
      const bool disjoint = closed[a].last_step < closed[b].first_step ||
                            closed[b].last_step < closed[a].first_step;
      EXPECT_TRUE(disjoint)
          << "slab ranges [" << closed[a].range.begin << ", "
          << closed[a].range.end << ") steps " << closed[a].first_step << "-"
          << closed[a].last_step << " and [" << closed[b].range.begin << ", "
          << closed[b].range.end << ") steps " << closed[b].first_step << "-"
          << closed[b].last_step << " overlap while both live";
    }
  }
  EXPECT_GT(closed.size(), 0u);
}

// ---------------------------------------------------------------------------

TEST(PlanTest, SteadyStateMakesZeroAllocatorCalls) {
  auto model = SmallModel();
  Rng rng(7);
  Tensor x = Tensor::Randn({2, 3, 32}, rng);
  auto plan = ExecutionPlan::Capture(
      [&](const Tensor& in) { return model->Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  plan->Run(x);  // not that Run distinguishes warm-up, but be explicit

  const AllocatorStats before = Allocator::Get().Stats();
  Tensor out;
  for (int i = 0; i < 5; ++i) out = plan->Run(x);
  const AllocatorStats after = Allocator::Get().Stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.frees_cached, before.frees_cached);
  EXPECT_EQ(after.frees_released, before.frees_released);
  ASSERT_TRUE(out.defined());
}

TEST(PlanTest, ShapeAndBackendGuard) {
  auto model = SmallModel();
  Rng rng(8);
  Tensor x = Tensor::Randn({2, 3, 32}, rng);
  auto plan = ExecutionPlan::Capture(
      [&](const Tensor& in) { return model->Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  Tensor same_shape = Tensor::Randn({2, 3, 32}, rng);
  Tensor other_batch = Tensor::Randn({4, 3, 32}, rng);
  EXPECT_TRUE(plan->Matches(same_shape));
  EXPECT_FALSE(plan->Matches(other_batch));
  EXPECT_FALSE(plan->Matches(Tensor()));
}

TEST(PlanTest, PlannedForecasterCachesPerShapeAndFallsBack) {
  auto model = SmallModel();
  PlannedForecaster forecaster(model.get());
  Rng rng(9);
  Tensor x1 = Tensor::Randn({2, 3, 32}, rng);
  Tensor x2 = Tensor::Randn({5, 3, 32}, rng);

  Tensor eager1, eager2;
  {
    InferenceModeGuard inference;
    eager1 = model->Forward(x1);
    eager2 = model->Forward(x2);
  }

  ExpectSameBytes(forecaster.Forward(x1), eager1, "shape 1, capture call");
  EXPECT_TRUE(forecaster.last_was_planned());
  ExpectSameBytes(forecaster.Forward(x1), eager1, "shape 1, replay call");
  EXPECT_TRUE(forecaster.last_was_planned());
  // A second shape compiles its own plan; the first stays cached.
  ExpectSameBytes(forecaster.Forward(x2), eager2, "shape 2");
  EXPECT_TRUE(forecaster.last_was_planned());
  ExpectSameBytes(forecaster.Forward(x1), eager1, "shape 1 after shape 2");
  EXPECT_TRUE(forecaster.last_was_planned());
  EXPECT_NE(forecaster.plan_for(x1.shape()), nullptr);
  EXPECT_NE(forecaster.plan_for(x2.shape()), nullptr);
  EXPECT_EQ(forecaster.plan_for(Shape{9, 3, 32}), nullptr);
}

TEST(PlanTest, FusedAndUnfusedRunsAreBitIdentical) {
  Rng rng(10);
  // One chain per fusion rule in the SIMD table: add+gelu,
  // mul_scalar+sigmoid, add_scalar+sqrt, mul_scalar+softmax.
  Tensor c = Tensor::Randn({6, 33}, rng);
  auto fn = [&](const Tensor& in) {
    Tensor a = Gelu(Add(in, c));
    Tensor b = Sigmoid(MulScalar(a, 0.7f));
    Tensor d = Sqrt(AddScalar(b, 1.5f));
    return SoftmaxLastDim(MulScalar(d, 0.3f));
  };
  Tensor x = Tensor::Randn({6, 33}, rng);
  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = fn(x);
  }

  plan::Options fused_opts;
  plan::Options unfused_opts;
  unfused_opts.fuse = false;
  auto fused = ExecutionPlan::Capture(fn, x, fused_opts);
  auto unfused = ExecutionPlan::Capture(fn, x, unfused_opts);
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(unfused, nullptr);
  EXPECT_EQ(fused->stats().fused, 4);
  EXPECT_EQ(unfused->stats().fused, 0);
  EXPECT_EQ(fused->stats().steps + 4, unfused->stats().steps);
  ExpectSameBytes(unfused->Run(x), eager, "unfused vs eager");
  ExpectSameBytes(fused->Run(x), eager, "fused vs eager");
}

TEST(PlanTest, UninstrumentedOpFailsCaptureAndFallsBackEager) {
  Conv2dModel model;
  model.SetTraining(false);
  Rng rng(13);
  Tensor x = Tensor::Randn({1, 4, 16}, rng);
  auto plan = ExecutionPlan::Capture(
      [&](const Tensor& in) { return model.Forward(in); }, x);
  EXPECT_EQ(plan, nullptr);

  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = model.Forward(x);
  }
  PlannedForecaster forecaster(&model);
  ExpectSameBytes(forecaster.Forward(x), eager, "eager fallback");
  EXPECT_FALSE(forecaster.last_was_planned());
  // The failed shape is memoized — still eager, still correct.
  ExpectSameBytes(forecaster.Forward(x), eager, "memoized eager fallback");
  EXPECT_FALSE(forecaster.last_was_planned());
  EXPECT_EQ(forecaster.plan_for(x.shape()), nullptr);
}

TEST(PlanTest, PrewarmCompilesLadderAndFirstForwardReplays) {
  auto model = SmallModel();
  PlannedForecaster forecaster(model.get());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const int64_t before = registry.CounterValue("plan/prewarm");
  EXPECT_EQ(forecaster.PrewarmBatchSizes({1, 3, 32}, {1, 2, 4}), 3);
  EXPECT_EQ(registry.CounterValue("plan/prewarm") - before, 3);
  for (int64_t b : {1, 2, 4}) {
    EXPECT_NE(forecaster.plan_for(Shape{b, 3, 32}), nullptr)
        << "batch " << b;
  }
  EXPECT_EQ(forecaster.plan_for(Shape{3, 3, 32}), nullptr);

  // A prewarmed shape replays on its very first Forward — no capture.
  Rng rng(21);
  Tensor x = Tensor::Randn({2, 3, 32}, rng);
  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = model->Forward(x);
  }
  ExpectSameBytes(forecaster.Forward(x), eager, "prewarmed first forward");
  EXPECT_TRUE(forecaster.last_was_planned());

  // Prewarming again is idempotent: live plans are kept, none recompiled.
  EXPECT_EQ(forecaster.PrewarmBatchSizes({1, 3, 32}, {1, 2, 4}), 0);
  EXPECT_EQ(registry.CounterValue("plan/prewarm") - before, 3);
}

TEST(PlanTest, PrewarmSkipsUncapturableShapes) {
  Conv2dModel model;
  model.SetTraining(false);
  PlannedForecaster forecaster(&model);
  EXPECT_EQ(forecaster.PrewarmBatchSizes({1, 4, 16}, {1, 2}), 0);
  EXPECT_EQ(forecaster.plan_for(Shape{1, 4, 16}), nullptr);
  // The prewarm failures are memoized; Forward serves eagerly.
  Rng rng(22);
  Tensor x = Tensor::Randn({2, 4, 16}, rng);
  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = model.Forward(x);
  }
  ExpectSameBytes(forecaster.Forward(x), eager, "eager after failed prewarm");
  EXPECT_FALSE(forecaster.last_was_planned());
}

// Conv2dModel with an entry counter, to observe exactly when the
// forecaster re-attempts capture (a capture attempt costs one model
// forward on top of the eager fallback's).
class CountingConv2dModel : public Conv2dModel {
 public:
  Tensor Forward(const Tensor& x) override {
    ++forwards;
    return Conv2dModel::Forward(x);
  }
  int forwards = 0;
};

// Regression test: the failed-shape memo is keyed by SIMD backend. A
// capture that failed under one backend must be retried after the
// backend changes instead of pinning the shape eager forever.
TEST(PlanTest, FailedShapeMemoRetriedAfterBackendChange) {
  if (!simd::Avx2Available()) {
    GTEST_SKIP() << "needs two SIMD backends to switch between";
  }
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  CountingConv2dModel model;
  model.SetTraining(false);
  Rng rng(23);
  Tensor x = Tensor::Randn({1, 4, 16}, rng);
  PlannedForecaster forecaster(&model);

  (void)forecaster.Forward(x);  // capture attempt + eager fallback
  EXPECT_EQ(model.forwards, 2);
  (void)forecaster.Forward(x);  // memoized: eager only
  EXPECT_EQ(model.forwards, 3);

  ASSERT_TRUE(simd::SetBackend(simd::Backend::kAvx2));
  // The memo was recorded under the scalar backend; with AVX2 active the
  // forecaster must retry the capture (one extra forward) rather than
  // trusting the stale entry.
  (void)forecaster.Forward(x);
  EXPECT_EQ(model.forwards, 5);
  EXPECT_FALSE(forecaster.last_was_planned());
  (void)forecaster.Forward(x);  // re-memoized under the new backend
  EXPECT_EQ(model.forwards, 6);

  simd::ReinitFromEnv();
}

TEST(PlanTest, InferenceModeBuildsNoTape) {
  Rng rng(14);
  Tensor x = Tensor::Randn({8, 8}, rng).SetRequiresGrad(true);
  InferenceModeGuard inference;
  Tensor y = Gelu(MatMul(x, x));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.grad_fn(), nullptr);
}

}  // namespace
}  // namespace focus
