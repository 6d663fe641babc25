// Device-sampling strategy interface (the Q^t_n of §II-B.1).
//
// The HFL engine asks the active Sampler, once per (time step, edge), for
// the inclusion probabilities q[t][m,n] of the devices currently inside that
// edge; once every edge of the step has decided, it feeds back the training
// observations of the devices that actually participated. Baselines live in
// src/sampling, MACH in src/core.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/observer.h"

namespace mach::ckpt {
class ByteWriter;
class ByteReader;
}  // namespace mach::ckpt

namespace mach::hfl {

/// Static facts about the federation, available to samplers up front.
/// (Class histograms are metadata a device would report at registration
/// time; they do not leak example contents.)
struct FederationInfo {
  std::size_t num_devices = 0;
  std::size_t num_edges = 0;
  std::size_t num_classes = 0;
  std::size_t cloud_interval = 1;  // T_g
  /// Per-device label histogram (num_devices x num_classes).
  std::vector<std::vector<std::size_t>> class_histograms;
};

/// Everything an edge knows when building its sampling strategy at step t.
struct EdgeSamplingContext {
  std::size_t t = 0;
  std::size_t edge = 0;
  /// Expected participation budget K_n (Eq. 3). May be fractional.
  double capacity = 0.0;
  /// M_n^t: ids of the devices currently associated with this edge.
  std::span<const std::uint32_t> devices;
  /// True squared gradient norms for `devices`, probed from the current edge
  /// model. Only filled when the sampler declares needs_oracle(); empty
  /// otherwise. Used by the MACH-P upper-bound baseline.
  std::span<const double> oracle_grad_sq_norms;
};

/// Feedback from one device's completed local-update phase.
struct TrainingObservation {
  std::size_t t = 0;
  std::uint32_t device = 0;
  std::size_t edge = 0;
  /// ||g_m(w^{t,tau}, xi)||^2 for each of the I local steps (Eq. 14's input).
  std::vector<double> local_grad_sq_norms;
  double mean_loss = 0.0;
};

class Sampler {
 public:
  virtual ~Sampler() = default;
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  virtual std::string name() const = 0;

  /// Called once before the run starts.
  virtual void bind(const FederationInfo& /*info*/) {}

  /// Returns q for every device in ctx.devices (same order). The engine
  /// clamps results to (0, 1] and never exceeds expected budget feasibility;
  /// implementations should already satisfy sum(q) <= capacity (Eq. 11/12).
  virtual std::vector<double> edge_probabilities(const EdgeSamplingContext& ctx) = 0;

  /// Called once per participating device of step t, after every edge of
  /// step t has decided (its last edge_probabilities call) and before that
  /// step's on_cloud_round: in edge order, then in the order of the edge's
  /// device list. Edges run their rounds concurrently, so no decision of
  /// step t sees an observation of step t, at any thread count.
  /// Arrivals only: under fault injection, a sampled device whose update
  /// never reaches the edge (dropout, straggler timeout, edge outage) is
  /// invisible here — experience buffers must reflect what the edge actually
  /// received, exactly as a deployed coordinator would see it.
  virtual void observe_training(const TrainingObservation& /*obs*/) {}

  /// Called at every cloud aggregation step (t mod T_g == 0), after
  /// aggregation. MACH refreshes UCB estimates and clears buffers here.
  virtual void on_cloud_round(std::size_t /*t*/) {}

  /// True when edge_probabilities needs oracle_grad_sq_norms filled (MACH-P).
  virtual bool needs_oracle() const { return false; }

  /// Checkpointing: serialises all run-accumulated state (experience
  /// buffers, UCB statistics, EMA estimates, internal RNG streams) into
  /// `out`, and restores it from `in`. load_state is called after bind() on
  /// a freshly constructed sampler; a restored sampler must continue the
  /// run bit-for-bit as the original would have. Stateless samplers (and
  /// samplers whose bind() fully reconstructs their state) keep the no-op
  /// defaults. Implementations should lead their blob with a version byte.
  virtual void save_state(ckpt::ByteWriter& /*out*/) const {}
  virtual void load_state(ckpt::ByteReader& /*in*/) {}

  /// Telemetry: fills `out` with the sampler's per-device internals (for
  /// MACH, Algorithm 2's G~^2 estimates, buffer occupancy and participation
  /// counts) and returns true. Stateless samplers return false and leave
  /// `out` untouched. Must not mutate sampler state — the engine calls it
  /// once per cloud round when a RunObserver is attached.
  virtual bool introspect(obs::SamplerIntrospection& /*out*/) const {
    return false;
  }

 protected:
  Sampler() = default;
};

using SamplerPtr = std::unique_ptr<Sampler>;

}  // namespace mach::hfl
