// Deterministic fault realisation.
//
// FaultInjector turns a declarative FaultSchedule into concrete per-event
// decisions. Every decision is a pure function of (schedule seed, event
// coordinates): each query hashes its coordinates into a private
// counter-based RNG stream (common::split_seed chains), so
//   * the answer never depends on query order or thread count,
//   * re-running the same schedule + seed replays the exact fault history
//     (the failure-replay harness in tests/fault/ relies on this), and
//   * the engine's sampling RNG stream is never touched — an all-zero
//     schedule leaves runs bitwise identical.
//
// The injector also exposes the analytic arrival probability implied by the
// schedule. The engine divides Horvitz-Thompson weights by it (Eq. 5 over
// the surviving set): device survival is an independent thinning with known
// probability, so 1/(|M_n| q_m a_m) keeps the edge aggregate unbiased —
// the property tests/hfl/test_ht_unbiased.cpp checks by Monte Carlo.
//
// It is also the engine's whole fault policy: it decides and tallies each
// edge round's fates (obs::FaultSummary and the fault_* counters) and names
// each cloud round's lost uploads. Disabled, it answers as fault-free with
// no draw (every sampled device arrives, a = 1), so the engine has one path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/schedule.h"
#include "obs/observer.h"

namespace mach::fault {

enum class DeviceFate {
  /// Trained and reported on time (no fault fired).
  Completed,
  /// Dropped mid-round: the update never arrives.
  Dropped,
  /// Straggled but an attempt fit the timeout budget (possibly a retry).
  StragglerArrived,
  /// Straggled and every attempt exceeded the budget: update lost.
  StragglerTimedOut,
};

struct DeviceFaultDecision {
  DeviceFate fate = DeviceFate::Completed;
  /// True when the device's update reaches the edge in time.
  bool arrived = true;
  /// Retransmissions consumed (stragglers; arrived or exhausted).
  std::size_t retries = 0;
  /// Virtual delay of the final (accepted or last) attempt, seconds.
  double delay_seconds = 0.0;
  /// Total virtual time spent across every attempt, seconds.
  double virtual_seconds = 0.0;
};

class FaultInjector {
 public:
  /// Disabled injector: enabled() is false and it answers as fault-free.
  FaultInjector() = default;

  /// `run_seed` feeds the derived fault stream when the schedule does not
  /// pin its own seed. The schedule must already be validated.
  FaultInjector(FaultSchedule schedule, std::uint64_t run_seed);

  bool enabled() const noexcept { return enabled_; }

  /// Arrival budget for `edge` (per-edge override or the straggler default).
  double edge_timeout(std::size_t edge) const noexcept;

  /// True when `edge` is inside an outage window at step `t`.
  bool edge_out(std::size_t t, std::size_t edge) const noexcept;

  /// Fate of one sampled device at (t, edge). Pure: same inputs, same answer.
  DeviceFaultDecision device_fate(std::size_t t, std::size_t edge,
                                  std::uint32_t device) const;

  /// True when `edge`'s model upload is lost at the cloud round of step `t`.
  bool cloud_upload_lost(std::size_t t, std::size_t edge) const;

  /// P(update arrives | sampled) for a device on `edge` under the schedule:
  /// (1 - p_drop) * (1 - p_straggle * P(every attempt misses the budget)).
  /// Matches the sampling procedure of device_fate exactly (1 when disabled).
  double arrival_probability(std::size_t edge, std::uint32_t device) const;

  /// Registers the fault_* counters when enabled. Call it at the start of a
  /// run, before a resume restores the registry.
  void begin_run(obs::MetricsRegistry& registry);

  /// Opens the round of `edge` at step `t`: resets `summary`, and returns
  /// true (the outage marked and counted) when the edge is out.
  bool begin_round(std::size_t t, std::size_t edge, obs::FaultSummary& summary);

  /// Decides the fates of the round's `sampled` devices (indices into
  /// `devices`) in sampled order: `arrivals` gets the indices whose update
  /// arrives, `summary` and the counters every fate.
  void decide_round(std::size_t t, std::size_t edge,
                    std::span<const std::uint32_t> devices,
                    std::span<const std::uint32_t> sampled,
                    std::vector<std::uint32_t>& arrivals,
                    obs::FaultSummary& summary);

  /// Fills `lost` with the edges with devices whose upload to step `t`'s
  /// cloud round is lost (ascending) and counts them.
  void lost_uploads(std::size_t t,
                    std::span<const std::vector<std::uint32_t>> per_edge,
                    std::vector<std::uint64_t>& lost);

  /// fault_updates_lost so far (0 when disabled).
  std::uint64_t updates_lost() const noexcept {
    return updates_lost_ != nullptr ? updates_lost_->value() : 0;
  }

 private:
  bool dropout_targets(std::uint32_t device) const noexcept;
  std::uint64_t event_seed(std::uint64_t domain, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) const noexcept;

  FaultSchedule schedule_;
  std::uint64_t seed_ = 0;
  bool enabled_ = false;
  // The fault_* counters (null until begin_run registers them).
  obs::Counter* dropouts_ = nullptr;
  obs::Counter* straggler_arrivals_ = nullptr;
  obs::Counter* straggler_timeouts_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* updates_lost_ = nullptr;
  obs::Counter* outage_rounds_ = nullptr;
  obs::Counter* cloud_uploads_lost_ = nullptr;
};

}  // namespace mach::fault
