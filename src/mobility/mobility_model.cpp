#include "mobility/mobility_model.h"

#include <cmath>
#include <stdexcept>

namespace mach::mobility {

MarkovMobilityModel::MarkovMobilityModel(std::vector<Point> stations, double stay_prob,
                                         double range)
    : stations_(std::move(stations)), stay_prob_(stay_prob) {
  if (stations_.empty()) throw std::invalid_argument("MarkovMobilityModel: no stations");
  if (stay_prob_ < 0.0 || stay_prob_ >= 1.0) {
    throw std::invalid_argument("MarkovMobilityModel: stay_prob must be in [0, 1)");
  }
  if (range <= 0.0) throw std::invalid_argument("MarkovMobilityModel: bad range");
  kernels_.resize(stations_.size());
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    kernels_[s].assign(stations_.size(), 0.0);
    for (std::size_t d = 0; d < stations_.size(); ++d) {
      if (d == s) continue;  // stay handled separately via stay_prob
      kernels_[s][d] = std::exp(-distance(stations_[s], stations_[d]) / range);
    }
  }
}

std::uint32_t MarkovMobilityModel::initial_station(common::Rng& rng) const {
  return static_cast<std::uint32_t>(rng.uniform_index(stations_.size()));
}

std::uint32_t MarkovMobilityModel::next_station(std::uint32_t current,
                                                common::Rng& rng) const {
  if (rng.uniform() < stay_prob_) return current;
  const std::size_t next = rng.categorical(kernels_[current]);
  // Single-station layouts have an all-zero kernel: stay put.
  return next < stations_.size() ? static_cast<std::uint32_t>(next) : current;
}

Trace generate_trace(const MarkovMobilityModel& model, std::size_t num_devices,
                     std::size_t horizon, std::uint64_t seed) {
  if (horizon == 0) throw std::invalid_argument("generate_trace: zero horizon");
  // Trace's constructor bounds num_devices and horizon by the uint32_t
  // counters below, which would otherwise wrap and never end.
  Trace trace(num_devices, model.num_stations(), horizon);
  for (std::uint32_t m = 0; m < num_devices; ++m) {
    // One RNG stream per device: its first draw is the initial station, the
    // rest its transitions, so a device's records depend on no other device.
    common::Rng rng(common::split_seed(seed, 0x40b1 + m));
    std::uint32_t station = model.initial_station(rng);
    std::uint32_t run_start = 0;
    for (std::uint32_t t = 1; t < horizon; ++t) {
      const std::uint32_t next = model.next_station(station, rng);
      if (next != station) {
        trace.add_record({m, station, run_start, t});
        station = next;
        run_start = t;
      }
    }
    trace.add_record({m, station, run_start, static_cast<std::uint32_t>(horizon)});
  }
  return trace;
}

}  // namespace mach::mobility
