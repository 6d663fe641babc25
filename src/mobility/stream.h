// Streaming device→station association for populations too large to
// materialise as a Trace and its dense O(M·T) TraceReplay grid.
//
// GridMobilityStream holds the association vector for *one* step at a time
// and advances in place, reporting only the devices that moved. Transitions
// are pure hash functions of (seed, device, move-time): no per-device RNG
// state exists, so the cursor (save_cursor/load_cursor) is just (t, station,
// next-move) ≈ 8 bytes per device, and checkpoint/resume replays the exact
// same association sequence bit-for-bit from any step. A calendar ring of
// due-lists makes a step cost O(devices whose dwell expires), which at mean
// dwell d̄ is M/d̄ — far below M for realistic dwell times. It is the mobility
// of the million-device scale engine (core/scale_sim.h); paper-scale runs
// replay a Trace instead (mobility_model.h → trace.h → schedule.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/bytes.h"

namespace mach::mobility {

/// Synthetic mobility over a population too large to materialise: station
/// choices and dwell times are pure hashes of (seed, device, move-time).
/// Two streams with the same config replay identically from any step.
class GridMobilityStream {
 public:
  struct Config {
    std::size_t num_devices = 0;
    std::size_t num_stations = 0;
    std::uint64_t seed = 0;
    /// Dwell at a station is uniform in [min_dwell, max_dwell] steps.
    std::uint32_t min_dwell = 1;
    std::uint32_t max_dwell = 16;
  };

  explicit GridMobilityStream(const Config& config);

  /// Current step index (starts at 0).
  std::size_t t() const noexcept { return t_; }
  /// Station of every device at the current step.
  std::span<const std::uint32_t> stations() const noexcept { return stations_; }

  /// Advances to step t()+1. `moved` is cleared and filled with the devices
  /// whose station changed, in ascending device order.
  void advance(std::vector<std::uint32_t>& moved);

  /// Serialises everything needed to continue the stream bit-for-bit.
  void save_cursor(ckpt::ByteWriter& out) const;
  /// Restores a cursor saved by the same configuration. Throws
  /// ckpt::CorruptPayload on a dimension mismatch or an out-of-range field.
  void load_cursor(ckpt::ByteReader& in);

  /// Bytes of state the stream holds (scale accounting).
  std::size_t memory_bytes() const noexcept;

  /// Fixed per-device state: one station id + one next-move step.
  static constexpr std::size_t bytes_per_device() noexcept {
    return 2 * sizeof(std::uint32_t);
  }

 private:
  /// The station a device hops to when it moves at step `t` (pure function).
  std::uint32_t station_at(std::uint32_t device, std::uint64_t t) const;
  /// The dwell rolled at that move (pure function, in [min_dwell, max_dwell]).
  std::uint32_t dwell_at(std::uint32_t device, std::uint64_t t) const;
  void rebuild_calendar();

  Config config_;
  std::vector<std::uint32_t> stations_;
  std::vector<std::uint32_t> next_move_;  // absolute step of the next hop
  // Calendar ring over window_ = max_dwell + 1 buckets: bucket (step %
  // window_) holds the devices due to move at that step.
  std::vector<std::vector<std::uint32_t>> calendar_;
  std::size_t window_ = 2;
  std::size_t t_ = 0;
};

}  // namespace mach::mobility
