// MobilitySchedule: the dense edge-association matrix B[t][n,m] that the HFL
// simulator consumes. It is obtained by composing a station-level trace with
// the station→edge clustering (devices access the nearest station; stations
// belong to main-edge clusters), or built directly for tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mobility/stations.h"
#include "mobility/trace.h"

namespace mach::mobility {

class MobilitySchedule {
 public:
  /// `device_edge[t * num_devices + m]` is the edge of device m at step t;
  /// every value must be < num_edges.
  MobilitySchedule(std::size_t num_edges, std::size_t num_devices,
                   std::size_t horizon, std::vector<std::uint32_t> device_edge);

  /// Maps each trace step through the clustering: edge = cluster(station).
  static MobilitySchedule from_trace(const TraceReplay& replay,
                                     const Clustering& clustering);

  /// Devices never move: a fixed random edge per device.
  static MobilitySchedule stationary(std::size_t num_edges, std::size_t num_devices,
                                     std::size_t horizon, common::Rng& rng);

  /// Devices jump to a uniform random edge every step (max churn).
  static MobilitySchedule uniform_random(std::size_t num_edges,
                                         std::size_t num_devices,
                                         std::size_t horizon, common::Rng& rng);

  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t num_devices() const noexcept { return num_devices_; }
  std::size_t horizon() const noexcept { return horizon_; }

  std::uint32_t edge_of(std::size_t t, std::size_t device) const {
    return grid_[(t % horizon_) * num_devices_ + device];
  }

  /// M_n^t: the device set of each edge at step t (Eq. 1's partition).
  std::vector<std::vector<std::uint32_t>> devices_per_edge(std::size_t t) const;

  /// Fraction of (t>0, device) pairs that switched edges — edge-level churn.
  double churn_rate() const noexcept;

  /// Mean fraction of devices per edge over time (occupancy balance check).
  std::vector<double> mean_edge_occupancy() const;

 private:
  std::size_t num_edges_;
  std::size_t num_devices_;
  std::size_t horizon_;
  std::vector<std::uint32_t> grid_;
};

}  // namespace mach::mobility
