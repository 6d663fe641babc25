// Experience updating (Algorithm 2): online UCB estimation of each device's
// maximum expected squared gradient norm G_m^2.
//
// Every device keeps a gradient-experience buffer of the ||g||^2 values it
// produced between consecutive edge-to-cloud communications. At each cloud
// round the estimate is refreshed as
//     G~^2_m = max_{t'} 1_m^{t'} Avg(G_m^{t'})  +  sqrt(log t / sum_t' 1_m^{t'})
// (Eq. 15: exploitation term A = best per-round mean seen so far,
// exploration term B = confidence radius shrinking with participations),
// and the buffer is cleared (Alg. 2 line 4).
//
// Storage is structure-of-arrays: the per-device experience buffer is held
// as a running (sum, count) pair — the round mean Avg(G_m^t) is the same
// left-to-right fold either way, so the estimates are bitwise identical to
// the buffered representation.
//
// The only holder of Algorithm 2's per-device state: MachSampler (MACH-G
// through it) folds into it.
#pragma once

#include <cstdint>
#include <vector>

namespace mach::ckpt {
class ByteWriter;
class ByteReader;
}  // namespace mach::ckpt

namespace mach::core {

struct UcbOptions {
  /// Scale on the exploration term (1.0 = paper's Eq. 15).
  double exploration_weight = 1.0;
  /// Ablation: drop term B entirely (pure greedy exploitation).
  bool use_exploration = true;
  /// Ablation: keep the buffer across cloud rounds instead of clearing it.
  bool clear_buffer_on_cloud_round = true;
  /// Optimistic prior for devices that have never participated: their
  /// exploitation term borrows the current population maximum.
  bool optimistic_init = true;
};

class UcbEstimator {
 public:
  UcbEstimator(std::size_t num_devices, UcbOptions options = {});

  /// Records one participation of `device`: the ||g||^2 values of its I
  /// local steps are folded into its experience accumulator (Eq. 14).
  void record(std::uint32_t device, const std::vector<double>& grad_sq_norms);

  /// Cloud-round bookkeeping: folds buffered experience into the per-round
  /// maxima and (by default) clears it, device by device in ascending order
  /// over the devices with a non-empty buffer. `t` is the current global
  /// time step used in the log t exploration numerator.
  void on_cloud_round(std::size_t t);

  /// Current estimate G~^2_m (Eq. 15). Never-participated devices return an
  /// optimistic value so they keep being explored.
  double estimate(std::uint32_t device) const;

  /// Exploitation term A only (tests / ablation introspection).
  double exploitation(std::uint32_t device) const;
  /// Exploration term B only.
  double exploration(std::uint32_t device) const;

  std::size_t participations(std::uint32_t device) const {
    return counts_.at(device);
  }
  /// Experiences buffered for `device` since the last cloud round (the
  /// |G_m^t| of Alg. 2 line 4; telemetry/introspection).
  std::size_t buffer_size(std::uint32_t device) const {
    return buffer_count_.at(device);
  }
  std::size_t num_devices() const noexcept { return counts_.size(); }

  /// Checkpointing: serialises all of Algorithm 2's accumulated state —
  /// experience accumulators, per-round maxima, participation counts, the
  /// population maximum and the last cloud-round time.
  void save_state(ckpt::ByteWriter& out) const;
  /// Restores a save_state blob into this estimator. Throws
  /// ckpt::CorruptPayload when the blob's device count disagrees with the
  /// estimator's (snapshot from a different topology).
  void load_state(ckpt::ByteReader& in);

 private:
  static constexpr std::uint8_t kHasEstimate = 1;

  /// One device's cloud-round fold (Alg. 2 lines 3–4).
  void fold_round(std::uint32_t m);

  UcbOptions options_;
  // SoA per-device state (parallel arrays).
  std::vector<double> buffer_sum_;          // Σ G_m^t since last refresh
  std::vector<std::uint32_t> buffer_count_; // |G_m^t|
  std::vector<double> max_round_avg_;       // max_{t'} Avg(G_m^{t'})
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> counts_;       // sum_t' 1_m^{t'}
  double population_max_ = 0.0;
  std::size_t last_cloud_t_ = 0;
};

}  // namespace mach::core
