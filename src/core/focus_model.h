// FOCUS — the paper's dual-branch forecasting network (Sec. VII).
//
// Online pipeline per lookback window X (N entities x L steps):
//   1. Instance-normalize each (entity, window) row (non-stationarity).
//   2. Segment into l = L/p patches; embed with a shared Linear(p -> d).
//   3. Temporal branch (Algorithm 3 l.2-6): ProtoAttn over each entity's l
//      temporal tokens; residual + LayerNorm.
//   4. Entity branch (Algorithm 3 l.7-11): ProtoAttn over the N entity
//      tokens at each temporal position; residual + LayerNorm.
//   5. Parallel Fusion Module (Algorithm 4): m learned readout queries
//      cross-attend to each branch, a sigmoid gate mixes the two readouts,
//      and a linear head maps (m * d) to the horizon.
//   6. De-instance-normalize.
//
// The Table IV ablation variants swap specific components:
//   kAttn       — extractors use full self-attention instead of ProtoAttn.
//   kLnrFusion  — fusion replaced by a gated linear layer over flattened
//                 branch features.
//   kAllLnr     — extractors are Linear layers AND fusion is gated-linear.
#ifndef FOCUS_CORE_FOCUS_MODEL_H_
#define FOCUS_CORE_FOCUS_MODEL_H_

#include <memory>
#include <string>

#include "core/forecast_model.h"
#include "core/proto_attn.h"
#include "nn/attention.h"
#include "nn/layers.h"

namespace focus {
namespace core {

enum class FocusVariant {
  kFull,       // FOCUS
  kAttn,       // FOCUS-Attn
  kLnrFusion,  // FOCUS-LnrFusion
  kAllLnr,     // FOCUS-AllLnr
};

std::string FocusVariantName(FocusVariant variant);

struct FocusConfig {
  int64_t lookback = 512;        // L
  int64_t horizon = 96;          // L_f
  int64_t num_entities = 8;      // N
  int64_t patch_len = 16;        // p; must divide lookback
  int64_t d_model = 64;          // d
  int64_t readout_queries = 6;   // m (6 for Lf=96, 21 for Lf=336 per paper)
  float alpha = 0.2f;            // Eq. 6 correlation weight
  bool instance_norm = true;
  // Learned positional / entity embeddings added to the tokens. The paper
  // leaves this implicit; without it every stage is content-based (see
  // DESIGN.md Sec. 3). Exposed for the design-ablation bench.
  bool positional_embedding = true;
  // Extractor depth. The paper uses a single-layer structure (Sec. VIII-A);
  // >1 stacks extractor blocks with shared prototypes (extension).
  int64_t num_layers = 1;
  FocusVariant variant = FocusVariant::kFull;
  uint64_t seed = 1;
};

class FocusModel : public ForecastModel {
 public:
  // `prototypes` is the (k, p) output of the offline clustering phase.
  FocusModel(const FocusConfig& config, Tensor prototypes);

  Tensor Forward(const Tensor& x) override;
  std::string name() const override;
  int64_t horizon() const override { return config_.horizon; }

  const FocusConfig& config() const { return config_; }
  // Case-study hooks (Fig. 13): first-layer temporal-branch ProtoAttn of
  // the last forward. Null for kAttn / kAllLnr variants.
  const ProtoAttn* temporal_proto_attn() const {
    return temporal_protos_.empty() ? nullptr : temporal_protos_[0].get();
  }

 private:
  // Extractor dispatch for one branch: tokens (B', T, p/d) -> (B', T, d).
  Tensor ExtractFeatures(const Tensor& raw, const Tensor& emb, bool temporal);
  // Fusion dispatch: per-entity branch features (B*N, l, d) x2 -> (B*N, Lf).
  Tensor Fuse(const Tensor& h_t, const Tensor& h_e);

  FocusConfig config_;
  int64_t num_patches_;  // l

  std::shared_ptr<nn::Linear> embed_;
  // Learned positional information: without it every stage of FOCUS is
  // purely content-based and the head cannot tell recent segments from old
  // ones (see DESIGN.md Sec. 3).
  Tensor temporal_pos_;  // (l, d) added to temporal-branch tokens
  Tensor entity_pos_;    // (N, d) added to entity-branch tokens
  // Per-layer extractor stacks (index = layer). Exactly one family is
  // populated depending on the variant.
  // ProtoAttn extractors (kFull, kLnrFusion).
  std::vector<std::shared_ptr<ProtoAttn>> temporal_protos_, entity_protos_;
  // Self-attention extractors (kAttn).
  std::vector<std::shared_ptr<nn::MultiheadSelfAttention>> temporal_attns_,
      entity_attns_;
  // Linear extractors (kAllLnr).
  std::vector<std::shared_ptr<nn::Linear>> temporal_lnrs_, entity_lnrs_;
  std::vector<std::shared_ptr<nn::LayerNorm>> temporal_norms_, entity_norms_;

  // Parallel Fusion Module (kFull, kAttn). Readout queries are *generated
  // from the input features* (Algorithm 4 l.1): Q = P H with learned
  // per-branch projections P in R^(m x l).
  Tensor readout_proj_t_;                // (m, l)
  Tensor readout_proj_e_;                // (m, l)
  std::shared_ptr<nn::Linear> gate_;     // (2d -> d), sigmoid gate
  std::shared_ptr<nn::Linear> head_;     // (m*d -> Lf)
  // Gated-linear fusion (kLnrFusion, kAllLnr).
  std::shared_ptr<nn::Linear> lnr_gate_;  // (2*l*d -> l*d)
  std::shared_ptr<nn::Linear> lnr_head_;  // (l*d -> Lf)
};

}  // namespace core
}  // namespace focus

#endif  // FOCUS_CORE_FOCUS_MODEL_H_
