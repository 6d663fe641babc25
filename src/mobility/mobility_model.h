// The device mobility model that synthesises the runs' access traces.
//
// The paper treats B[t][n,m] (which edge a device touches at step t) as
// known input replayed from the Shanghai Telecom dataset, and cites Markov
// mobility models as the standard way to obtain it. MarkovMobilityModel is a
// first-order Markov chain over the synthetic station layout whose
// transition kernel prefers nearby stations (distance-decay), with a tunable
// stay probability controlling dwell times.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mobility/geo.h"
#include "mobility/trace.h"

namespace mach::mobility {

class MarkovMobilityModel {
 public:
  /// `stay_prob` is the per-step probability of keeping the current station;
  /// `range` is the distance-decay scale of the movement kernel
  /// (weight ∝ exp(-distance / range)).
  MarkovMobilityModel(std::vector<Point> stations, double stay_prob, double range);

  std::uint32_t initial_station(common::Rng& rng) const;
  std::uint32_t next_station(std::uint32_t current, common::Rng& rng) const;
  std::size_t num_stations() const noexcept { return stations_.size(); }

 private:
  std::vector<Point> stations_;
  double stay_prob_;
  std::vector<std::vector<double>> kernels_;
};

/// Simulates `horizon` steps of the model for every device and compresses
/// constant runs into trace records.
Trace generate_trace(const MarkovMobilityModel& model, std::size_t num_devices,
                     std::size_t horizon, std::uint64_t seed);

}  // namespace mach::mobility
