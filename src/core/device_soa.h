// Structure-of-arrays edge membership for the million-device scale engine.
//
// One growable object per device (experience buffers, per-device vectors)
// is what caps the paper-scale simulator at ~1e4 devices. Here every
// per-device quantity lives in a parallel contiguous array with a *fixed*
// byte cost, so the total footprint is an arithmetic fact rather than an
// allocator outcome: kBytesPerDevice x M plus O(edges) overhead. The scale
// engine asserts this bound in its tests and the bench/scale RSS gate.
// Algorithm 2's experience state is not here: the engine keeps it in a
// UcbEstimator, the same one MachSampler uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/bytes.h"

namespace mach::core {

struct DeviceStateArrays {
  // Edge membership (dense reverse index into the per-edge member lists).
  std::vector<std::uint32_t> edge;
  std::vector<std::uint32_t> slot;
  // The G~² value each device's stored sampling weight was computed from —
  // lets weight updates adjust the edge's Eq. 16 denominator incrementally.
  std::vector<double> weight_basis;

  /// Fixed bytes per device across these arrays: 4 + 4 + 8.
  static constexpr std::size_t bytes_per_device() noexcept { return 16; }

  std::size_t size() const noexcept { return edge.size(); }

  void reset(std::size_t num_devices) {
    edge.assign(num_devices, 0);
    slot.assign(num_devices, 0);
    weight_basis.assign(num_devices, 0.0);
  }

  /// Actual bytes held (capacities, for the RSS accounting).
  std::size_t memory_bytes() const noexcept {
    return edge.capacity() * sizeof(std::uint32_t) +
           slot.capacity() * sizeof(std::uint32_t) +
           weight_basis.capacity() * sizeof(double);
  }

  void save(ckpt::ByteWriter& out) const {
    out.u64(size());
    for (std::size_t m = 0; m < size(); ++m) {
      out.u32(edge[m]);
      out.u32(slot[m]);
      out.f64(weight_basis[m]);
    }
  }

  void load(ckpt::ByteReader& in) {
    if (in.u64() != size()) {
      throw ckpt::CorruptPayload("DeviceStateArrays: device count mismatch");
    }
    for (std::size_t m = 0; m < size(); ++m) {
      edge[m] = in.u32();
      slot[m] = in.u32();
      weight_basis[m] = in.f64();
    }
  }
};

}  // namespace mach::core
