#include "mobility/stream.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace mach::mobility {

GridMobilityStream::GridMobilityStream(const Config& config) : config_(config) {
  if (config_.num_devices == 0 || config_.num_stations == 0) {
    throw std::invalid_argument("GridMobilityStream: empty dimensions");
  }
  if (config_.min_dwell < 1 || config_.max_dwell < config_.min_dwell) {
    throw std::invalid_argument(
        "GridMobilityStream: need 1 <= min_dwell <= max_dwell");
  }
  window_ = static_cast<std::size_t>(config_.max_dwell) + 1;
  stations_.resize(config_.num_devices);
  next_move_.resize(config_.num_devices);
  for (std::uint32_t m = 0; m < config_.num_devices; ++m) {
    stations_[m] = station_at(m, 0);
    next_move_[m] = dwell_at(m, 0);
  }
  rebuild_calendar();
}

std::uint32_t GridMobilityStream::station_at(std::uint32_t device,
                                             std::uint64_t t) const {
  // Pure function of (seed, device, t): no per-device RNG state to store or
  // checkpoint — this is what keeps the cursor at 8 bytes per device.
  const std::uint64_t key = common::split_seed(
      config_.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)), device);
  return static_cast<std::uint32_t>(key % config_.num_stations);
}

std::uint32_t GridMobilityStream::dwell_at(std::uint32_t device,
                                           std::uint64_t t) const {
  const std::uint64_t key = common::split_seed(
      config_.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)), device);
  const std::uint64_t span = config_.max_dwell - config_.min_dwell + 1;
  return config_.min_dwell + static_cast<std::uint32_t>((key >> 32) % span);
}

void GridMobilityStream::rebuild_calendar() {
  calendar_.assign(window_, {});
  for (std::uint32_t m = 0; m < next_move_.size(); ++m) {
    calendar_[next_move_[m] % window_].push_back(m);
  }
}

void GridMobilityStream::advance(std::vector<std::uint32_t>& moved) {
  moved.clear();
  ++t_;
  auto& due = calendar_[t_ % window_];
  // Sorting the due-list (not the whole population) keeps `moved` ascending
  // and makes the processing order identical whether the bucket was filled
  // by live advances or rebuilt from a loaded cursor.
  std::sort(due.begin(), due.end());
  for (const std::uint32_t m : due) {
    const std::uint32_t station = station_at(m, t_);
    const std::uint32_t dwell = dwell_at(m, t_);
    next_move_[m] = static_cast<std::uint32_t>(t_) + dwell;
    // dwell < window_, so the target bucket is never the one being drained.
    calendar_[(t_ + dwell) % window_].push_back(m);
    if (station != stations_[m]) {
      stations_[m] = station;
      moved.push_back(m);
    }
  }
  due.clear();
}

void GridMobilityStream::save_cursor(ckpt::ByteWriter& out) const {
  out.u64(t_);
  out.u64(stations_.size());
  for (const std::uint32_t s : stations_) out.u32(s);
  for (const std::uint32_t n : next_move_) out.u32(n);
}

void GridMobilityStream::load_cursor(ckpt::ByteReader& in) {
  const std::size_t t = static_cast<std::size_t>(in.u64());
  if (in.u64() != stations_.size()) {
    throw ckpt::CorruptPayload("GridMobilityStream: device count mismatch");
  }
  for (auto& s : stations_) {
    s = in.u32();
    if (s >= config_.num_stations) {
      throw ckpt::CorruptPayload("GridMobilityStream: station id out of range");
    }
  }
  for (auto& n : next_move_) {
    n = in.u32();
    if (n <= t || n > t + config_.max_dwell) {
      throw ckpt::CorruptPayload("GridMobilityStream: next-move step outside "
                                 "the dwell window");
    }
  }
  t_ = t;
  rebuild_calendar();
}

std::size_t GridMobilityStream::memory_bytes() const noexcept {
  std::size_t calendar_bytes = calendar_.capacity() * sizeof(calendar_[0]);
  for (const auto& bucket : calendar_) {
    calendar_bytes += bucket.capacity() * sizeof(std::uint32_t);
  }
  return (stations_.capacity() + next_move_.capacity()) *
             sizeof(std::uint32_t) +
         calendar_bytes;
}

}  // namespace mach::mobility
