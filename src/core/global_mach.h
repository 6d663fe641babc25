// Ablation of Remark 2's per-edge independence: a single *global* sampling
// strategy computed over all devices (as a flat, non-hierarchical FL system
// would), then served to every edge as the slice covering its devices.
//
// The paper argues each edge should derive its strategy from the devices
// currently inside it; this sampler deliberately ignores edge membership
// when normalising (Eq. 16's denominator runs over all of M, and the budget
// is the federation-wide sum of K_n), so edges whose devices happen to hold
// small gradient norms under-spend their channel capacity and vice versa.
//
// Everything else is MachSampler's: the same UcbEstimator experience,
// transfer function, introspection and checkpoint blob.
#pragma once

#include <optional>

#include "core/mach.h"

namespace mach::core {

class GlobalMachSampler final : public MachSampler {
 public:
  using MachSampler::MachSampler;

  std::string name() const override { return "mach_global"; }
  void bind(const hfl::FederationInfo& info) override;
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
  void on_cloud_round(std::size_t t) override;
  void load_state(ckpt::ByteReader& in) override;

 private:
  /// Recomputes the federation-wide strategy for time step `t`.
  void refresh_global_strategy(std::size_t t, double edge_capacity);

  std::size_t num_edges_ = 1;
  // A within-step cache, recomputed deterministically from the estimator on
  // the next edge_probabilities() call — not checkpointed state.
  std::vector<double> global_q_;     // per-device probabilities
  std::optional<std::size_t> cached_t_;
};

}  // namespace mach::core
