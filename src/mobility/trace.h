// Access traces and their replay into per-step associations.
//
// A trace is a list of (device, station, t_start, t_end) records, the
// schema of the Shanghai Telecom dataset the paper replays. Runs build their
// trace with generate_trace (mobility_model.h); tests also construct traces
// directly. TraceReplay resolves, for every discrete time step, the station
// each device is accessing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mobility/geo.h"

namespace mach::mobility {

struct TraceRecord {
  std::uint32_t device = 0;
  std::uint32_t station = 0;
  std::uint32_t t_start = 0;  // inclusive
  std::uint32_t t_end = 0;    // exclusive
};

class Trace {
 public:
  /// Throws std::invalid_argument if a dimension exceeds the uint32_t ids
  /// of TraceRecord.
  Trace(std::size_t num_devices, std::size_t num_stations, std::size_t horizon);

  void add_record(TraceRecord record);

  std::size_t num_devices() const noexcept { return num_devices_; }
  std::size_t num_stations() const noexcept { return num_stations_; }
  /// Number of discrete time steps covered.
  std::size_t horizon() const noexcept { return horizon_; }
  const std::vector<TraceRecord>& records() const noexcept { return records_; }

  /// Average record duration in steps.
  double mean_dwell() const noexcept;

  /// Serialises to a CSV with a header line (device,station,t_start,t_end)
  /// and one line per record.
  bool write_csv(const std::string& path) const;

 private:
  std::size_t num_devices_;
  std::size_t num_stations_;
  std::size_t horizon_;
  std::vector<TraceRecord> records_;
};

/// Dense replay of a trace: station_of(t, device) in O(1).
class TraceReplay {
 public:
  /// Every device must be covered by exactly one record at every step in
  /// [0, horizon); throws otherwise (the paper's B[t][n,m] is a partition).
  explicit TraceReplay(const Trace& trace);

  std::size_t horizon() const noexcept { return horizon_; }
  std::size_t num_devices() const noexcept { return num_devices_; }

  std::uint32_t station_of(std::size_t t, std::size_t device) const {
    return grid_[t * num_devices_ + device];
  }

  /// Fraction of steps (t>0) where a device switched stations, averaged over
  /// devices — the trace's churn rate.
  double churn_rate() const noexcept;

 private:
  std::size_t num_devices_;
  std::size_t horizon_;
  std::vector<std::uint32_t> grid_;
};

}  // namespace mach::mobility
