// Complexity validation (paper Secs. VI-B and VII-B): measured forward
// FLOPs of FOCUS must scale linearly in both the input length L and the
// entity count N, while the FOCUS-Attn ablation picks up a quadratic term
// in the token count. We fit log-log slopes over measured FLOP counts.
// A third sweep times ProtoAttn alone over the prototype count k, so its
// linear-in-k cost is checked in nanoseconds as well as in FLOPs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/focus_model.h"
#include "core/proto_attn.h"
#include "harness/experiments.h"
#include "metrics/metrics.h"
#include "nn/layers.h"
#include "tensor/flops.h"
#include "utils/stopwatch.h"
#include "utils/table.h"

namespace {

using namespace focus;

// Least-squares slope of log(flops) vs log(x): ~1 linear, ~2 quadratic.
double LogLogSlope(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  const size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    const double lx = std::log(xs[i]), ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

int64_t FocusFlops(core::FocusVariant variant, int64_t length,
                   int64_t entities, int64_t patch) {
  Rng rng(1);
  Tensor protos = Tensor::Randn({16, patch}, rng);
  core::FocusConfig cfg;
  cfg.lookback = length;
  cfg.horizon = 96;
  cfg.num_entities = entities;
  cfg.patch_len = patch;
  cfg.d_model = 32;
  cfg.readout_queries = 6;
  cfg.variant = variant;
  cfg.seed = 2;
  core::FocusModel model(cfg, protos);
  Tensor sample = Tensor::Randn({1, entities, length}, rng);
  return metrics::ProbeEfficiency(model, sample).flops;
}

struct ProtoAttnCost {
  double flops = 0;
  double median_ns = 0;
};

// One inference ProtoAttn::Forward at L = 512, N = 8 (8 x 32 tokens of
// p = 16, d = 32) with k prototypes: its FLOPs and the median wall time
// of 41 timed calls after one untimed call.
ProtoAttnCost ProtoAttnCostAt(int64_t k) {
  const int64_t length = 512, entities = 8, p = 16, d = 32;
  Rng rng(3);
  auto embed = std::make_shared<nn::Linear>(p, d, rng);
  core::ProtoAttn attn(Tensor::Randn({k, p}, rng), embed, d, 0.2f, rng);
  const Tensor raw = Tensor::Randn({entities, length / p, p}, rng);
  InferenceModeGuard inference;
  const Tensor emb = embed->Forward(raw);
  ProtoAttnCost cost;
  FlopCounter::Reset();
  attn.Forward(raw, emb);
  cost.flops = static_cast<double>(FlopCounter::Count());
  std::vector<double> ns;
  for (int rep = 0; rep < 41; ++rep) {
    Stopwatch timer;
    const Tensor out = attn.Forward(raw, emb);
    ns.push_back(timer.ElapsedSeconds() * 1e9);
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  cost.median_ns = ns[ns.size() / 2];
  return cost;
}

}  // namespace

int main() {
  std::printf("=== Complexity scaling: measured FLOPs vs L and N ===\n");

  {
    Table t({"L", "FOCUS FLOPs(M)", "FOCUS-Attn FLOPs(M)"});
    std::vector<double> ls, focus_f, attn_f;
    for (int64_t length : {128, 256, 512, 1024, 2048}) {
      const double f_focus = static_cast<double>(
          FocusFlops(core::FocusVariant::kFull, length, 8, 16));
      const double f_attn = static_cast<double>(
          FocusFlops(core::FocusVariant::kAttn, length, 8, 16));
      ls.push_back(static_cast<double>(length));
      focus_f.push_back(f_focus);
      attn_f.push_back(f_attn);
      t.AddRow({std::to_string(length), Table::Num(f_focus / 1e6, 2),
                Table::Num(f_attn / 1e6, 2)});
    }
    std::printf("%s", t.ToAscii().c_str());
    std::printf("log-log slope in L:  FOCUS %.2f (linear target 1.0), "
                "FOCUS-Attn %.2f (super-linear)\n\n",
                LogLogSlope(ls, focus_f), LogLogSlope(ls, attn_f));
  }

  {
    Table t({"N", "FOCUS FLOPs(M)", "FOCUS-Attn FLOPs(M)"});
    std::vector<double> ns, focus_f, attn_f;
    for (int64_t entities : {4, 8, 16, 32, 64}) {
      const double f_focus = static_cast<double>(
          FocusFlops(core::FocusVariant::kFull, 256, entities, 16));
      const double f_attn = static_cast<double>(
          FocusFlops(core::FocusVariant::kAttn, 256, entities, 16));
      ns.push_back(static_cast<double>(entities));
      focus_f.push_back(f_focus);
      attn_f.push_back(f_attn);
      t.AddRow({std::to_string(entities), Table::Num(f_focus / 1e6, 2),
                Table::Num(f_attn / 1e6, 2)});
    }
    std::printf("%s", t.ToAscii().c_str());
    std::printf("log-log slope in N:  FOCUS %.2f (linear target 1.0), "
                "FOCUS-Attn %.2f (super-linear)\n",
                LogLogSlope(ns, focus_f), LogLogSlope(ns, attn_f));
  }

  {
    std::printf("\n");
    Table t({"k", "ProtoAttn FLOPs(M)", "median ns/Forward"});
    std::vector<double> ks, flops, times;
    for (int64_t k : {8, 16, 32, 64}) {
      const ProtoAttnCost cost = ProtoAttnCostAt(k);
      ks.push_back(static_cast<double>(k));
      flops.push_back(cost.flops);
      times.push_back(cost.median_ns);
      t.AddRow({std::to_string(k), Table::Num(cost.flops / 1e6, 2),
                Table::Num(cost.median_ns, 0)});
    }
    std::printf("%s", t.ToAscii().c_str());
    std::printf("log-log slope in k (L=512, N=8): ProtoAttn FLOPs %.2f, "
                "time %.2f (linear in k: at most 1.0)\n",
                LogLogSlope(ks, flops), LogLogSlope(ks, times));
  }
  return 0;
}
