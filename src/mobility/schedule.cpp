#include "mobility/schedule.h"

#include <stdexcept>

namespace mach::mobility {

MobilitySchedule::MobilitySchedule(std::size_t num_edges, std::size_t num_devices,
                                   std::size_t horizon,
                                   std::vector<std::uint32_t> device_edge)
    : num_edges_(num_edges),
      num_devices_(num_devices),
      horizon_(horizon),
      grid_(std::move(device_edge)) {
  if (num_edges_ == 0 || num_devices_ == 0 || horizon_ == 0) {
    throw std::invalid_argument("MobilitySchedule: empty dimensions");
  }
  if (grid_.size() != horizon_ * num_devices_) {
    throw std::invalid_argument("MobilitySchedule: grid size mismatch");
  }
  for (auto edge : grid_) {
    if (edge >= num_edges_) {
      throw std::invalid_argument("MobilitySchedule: edge id out of range");
    }
  }
}

MobilitySchedule MobilitySchedule::from_trace(const TraceReplay& replay,
                                              const Clustering& clustering) {
  const std::size_t horizon = replay.horizon();
  const std::size_t devices = replay.num_devices();
  std::vector<std::uint32_t> grid(horizon * devices);
  for (std::size_t t = 0; t < horizon; ++t) {
    for (std::size_t m = 0; m < devices; ++m) {
      grid[t * devices + m] = clustering.assignment.at(replay.station_of(t, m));
    }
  }
  return MobilitySchedule(clustering.num_clusters(), devices, horizon, std::move(grid));
}

MobilitySchedule MobilitySchedule::stationary(std::size_t num_edges,
                                              std::size_t num_devices,
                                              std::size_t horizon, common::Rng& rng) {
  std::vector<std::uint32_t> grid(horizon * num_devices);
  for (std::size_t m = 0; m < num_devices; ++m) {
    const auto edge = static_cast<std::uint32_t>(rng.uniform_index(num_edges));
    for (std::size_t t = 0; t < horizon; ++t) grid[t * num_devices + m] = edge;
  }
  return MobilitySchedule(num_edges, num_devices, horizon, std::move(grid));
}

MobilitySchedule MobilitySchedule::uniform_random(std::size_t num_edges,
                                                  std::size_t num_devices,
                                                  std::size_t horizon,
                                                  common::Rng& rng) {
  std::vector<std::uint32_t> grid(horizon * num_devices);
  for (auto& cell : grid) {
    cell = static_cast<std::uint32_t>(rng.uniform_index(num_edges));
  }
  return MobilitySchedule(num_edges, num_devices, horizon, std::move(grid));
}

std::vector<std::vector<std::uint32_t>> MobilitySchedule::devices_per_edge(
    std::size_t t) const {
  std::vector<std::vector<std::uint32_t>> result(num_edges_);
  for (std::size_t m = 0; m < num_devices_; ++m) {
    result[edge_of(t, m)].push_back(static_cast<std::uint32_t>(m));
  }
  return result;
}

double MobilitySchedule::churn_rate() const noexcept {
  if (horizon_ < 2) return 0.0;
  std::size_t switches = 0;
  for (std::size_t t = 1; t < horizon_; ++t) {
    for (std::size_t m = 0; m < num_devices_; ++m) {
      if (grid_[t * num_devices_ + m] != grid_[(t - 1) * num_devices_ + m]) ++switches;
    }
  }
  return static_cast<double>(switches) /
         static_cast<double>((horizon_ - 1) * num_devices_);
}

std::vector<double> MobilitySchedule::mean_edge_occupancy() const {
  std::vector<double> occupancy(num_edges_, 0.0);
  for (std::size_t t = 0; t < horizon_; ++t) {
    for (std::size_t m = 0; m < num_devices_; ++m) {
      occupancy[grid_[t * num_devices_ + m]] += 1.0;
    }
  }
  const double denom = static_cast<double>(horizon_) * num_devices_;
  for (auto& o : occupancy) o /= denom;
  return occupancy;
}

}  // namespace mach::mobility
