// MACH — the paper's Mobility-Aware deviCe sampling algorithm in HFL
// (Algorithm 1), composed of experience updating (UCB, Algorithm 2) and
// edge sampling (Algorithm 3).
//
// Each edge independently builds its strategy from the devices currently
// inside it (Remark 2):
//   1. virtual probability  q^_m = K_n G~^2_m / sum_{m'} G~^2_{m'}   (Eq. 16)
//   2. transfer smoothing   S(q^_m)                                  (Eq. 17)
//   3. budget renormalise   q_m = K_n S(q^_m) / sum_{m'} S(q^_{m'})  (Eq. 18)
//
// MachOracleSampler is the paper's MACH-P upper bound: identical edge
// sampling, but G^2 comes from an oracle probe of the true current gradient
// norms instead of the online UCB estimate.
#pragma once

#include <optional>

#include "core/transfer.h"
#include "core/ucb.h"
#include "hfl/sampler.h"

namespace mach::core {

struct MachOptions {
  UcbOptions ucb;
  TransferOptions transfer;
  /// Ablation: skip the transfer smoothing and use the raw virtual
  /// probabilities (clipped into [0,1] by water-filling) directly.
  bool use_transfer = true;
};

/// Shared Eq. 16→18 edge-sampling pipeline given per-device G^2 scores.
std::vector<double> edge_sampling_probabilities(std::span<const double> g_squared,
                                                double capacity,
                                                const TransferFunction* transfer);

/// MACH (Algorithm 1): Algorithm 2's experience in a UcbEstimator, and each
/// edge's strategy from Eq. 16–18 over its current members. GlobalMachSampler
/// derives from it and replaces only the per-edge strategy.
class MachSampler : public hfl::Sampler {
 public:
  explicit MachSampler(MachOptions options = {});

  std::string name() const override { return "mach"; }
  void bind(const hfl::FederationInfo& info) override;
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
  void observe_training(const hfl::TrainingObservation& obs) override;
  void on_cloud_round(std::size_t t) override;
  /// Exports Algorithm 2's state (G~^2, buffer occupancy, participations).
  bool introspect(obs::SamplerIntrospection& out) const override;
  void save_state(ckpt::ByteWriter& out) const override;
  void load_state(ckpt::ByteReader& in) override;

  /// Introspection for tests and the quickstart example.
  const UcbEstimator& estimator() const { return *estimator_; }
  const TransferFunction& transfer() const { return transfer_; }

 protected:
  MachOptions options_;
  std::optional<UcbEstimator> estimator_;  // sized at bind()
  TransferFunction transfer_;

 private:
  std::vector<double> g2_scratch_;  // reused per-edge estimate gather
};

class MachOracleSampler final : public hfl::Sampler {
 public:
  explicit MachOracleSampler(MachOptions options = {});

  std::string name() const override { return "mach_p"; }
  std::vector<double> edge_probabilities(const hfl::EdgeSamplingContext& ctx) override;
  void on_cloud_round(std::size_t t) override;
  bool needs_oracle() const override { return true; }
  void save_state(ckpt::ByteWriter& out) const override;
  void load_state(ckpt::ByteReader& in) override;

 private:
  MachOptions options_;
  TransferFunction transfer_;
};

}  // namespace mach::core
