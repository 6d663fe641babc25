// Pooled per-device error-feedback residuals: one contiguous float slab plus
// a fixed 4-byte handle per device, replacing the vector-per-device layout.
//
// With a stateful upload codec (top-k) every participating device owns a
// param_count-sized residual. A vector per device costs an allocation, a
// pointer triple and heap scatter per device, RAM and cache churn that grow
// with the fleet. The pool packs live residuals back-to-back in one slab
// (allocated lazily, in first-participation order) and keeps only a u32 slot
// handle per device.
//
// The checkpoint wire format is exactly the historical one (u64 device
// count, then one vec_f32 per device — empty when unallocated), so snapshots
// are interchangeable with the pre-pool layout byte for byte.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mach::ckpt {
class ByteWriter;
class ByteReader;
}  // namespace mach::ckpt

namespace mach::hfl {

class ResidualPool {
 public:
  /// No devices, no slab; get() on any device is invalid.
  ResidualPool() = default;

  /// Tracks `num_devices` handles, each resolving to a `stride`-float
  /// residual once allocated. Frees any previous slab.
  void reset(std::size_t num_devices, std::size_t stride);

  /// True once reset() has been called with a nonzero device count.
  bool enabled() const noexcept { return !handles_.empty(); }
  std::size_t num_devices() const noexcept { return handles_.size(); }

  /// The device's residual, or an empty span when it never participated.
  std::span<const float> get(std::uint32_t device) const;

  /// The device's residual, allocating (zero-filled) on first use. An
  /// allocation may move the slab: spans returned earlier are invalidated,
  /// so fetch the span immediately before each use.
  std::span<float> get_or_alloc(std::uint32_t device);

  /// Wire-compatible with the historical vector-per-device serialisation.
  void save_state(ckpt::ByteWriter& out) const;
  /// Throws ckpt::CorruptPayload on device-count or stride mismatch.
  void load_state(ckpt::ByteReader& in);

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::size_t stride_ = 0;
  std::size_t allocated_ = 0;
  std::vector<std::uint32_t> handles_;  // device → slab slot (kNoSlot = none)
  std::vector<float> slab_;             // allocated_ * stride_ floats
};

}  // namespace mach::hfl
