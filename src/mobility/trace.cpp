#include "mobility/trace.h"

#include <fstream>
#include <limits>
#include <stdexcept>

namespace mach::mobility {

Trace::Trace(std::size_t num_devices, std::size_t num_stations, std::size_t horizon)
    : num_devices_(num_devices), num_stations_(num_stations), horizon_(horizon) {
  constexpr std::size_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  if (num_devices > kMaxId || num_stations > kMaxId || horizon > kMaxId) {
    throw std::invalid_argument("Trace: dimensions exceed the uint32_t record ids");
  }
}

void Trace::add_record(TraceRecord record) {
  if (record.device >= num_devices_ || record.station >= num_stations_) {
    throw std::invalid_argument("Trace::add_record: id out of range");
  }
  if (record.t_start >= record.t_end || record.t_end > horizon_) {
    throw std::invalid_argument("Trace::add_record: bad time interval");
  }
  records_.push_back(record);
}

double Trace::mean_dwell() const noexcept {
  if (records_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : records_) total += r.t_end - r.t_start;
  return total / static_cast<double>(records_.size());
}

bool Trace::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "device,station,t_start,t_end\n";
  for (const auto& r : records_) {
    out << r.device << ',' << r.station << ',' << r.t_start << ',' << r.t_end << '\n';
  }
  return static_cast<bool>(out);
}

TraceReplay::TraceReplay(const Trace& trace)
    : num_devices_(trace.num_devices()), horizon_(trace.horizon()) {
  constexpr std::uint32_t kUnset = ~std::uint32_t{0};
  grid_.assign(horizon_ * num_devices_, kUnset);
  for (const auto& r : trace.records()) {
    for (std::uint32_t t = r.t_start; t < r.t_end; ++t) {
      auto& cell = grid_[t * num_devices_ + r.device];
      if (cell != kUnset) {
        throw std::invalid_argument("TraceReplay: overlapping records for device " +
                                    std::to_string(r.device) + " at t=" +
                                    std::to_string(t));
      }
      cell = r.station;
    }
  }
  for (std::size_t t = 0; t < horizon_; ++t) {
    for (std::size_t m = 0; m < num_devices_; ++m) {
      if (grid_[t * num_devices_ + m] == kUnset) {
        throw std::invalid_argument("TraceReplay: device " + std::to_string(m) +
                                    " uncovered at t=" + std::to_string(t));
      }
    }
  }
}

double TraceReplay::churn_rate() const noexcept {
  if (horizon_ < 2 || num_devices_ == 0) return 0.0;
  std::size_t switches = 0;
  for (std::size_t t = 1; t < horizon_; ++t) {
    for (std::size_t m = 0; m < num_devices_; ++m) {
      if (grid_[t * num_devices_ + m] != grid_[(t - 1) * num_devices_ + m]) ++switches;
    }
  }
  return static_cast<double>(switches) /
         static_cast<double>((horizon_ - 1) * num_devices_);
}

}  // namespace mach::mobility
