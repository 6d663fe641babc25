#include "hfl/residual_pool.h"

#include <algorithm>

#include "ckpt/bytes.h"

namespace mach::hfl {

void ResidualPool::reset(std::size_t num_devices, std::size_t stride) {
  stride_ = stride;
  allocated_ = 0;
  handles_.assign(num_devices, kNoSlot);
  slab_.clear();
  slab_.shrink_to_fit();
}

std::span<const float> ResidualPool::get(std::uint32_t device) const {
  const std::uint32_t slot = handles_.at(device);
  if (slot == kNoSlot) return {};
  return {slab_.data() + static_cast<std::size_t>(slot) * stride_, stride_};
}

std::span<float> ResidualPool::get_or_alloc(std::uint32_t device) {
  std::uint32_t& slot = handles_.at(device);
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(allocated_++);
    slab_.resize(allocated_ * stride_, 0.0f);
  }
  return {slab_.data() + static_cast<std::size_t>(slot) * stride_, stride_};
}

void ResidualPool::save_state(ckpt::ByteWriter& out) const {
  out.u64(handles_.size());
  for (std::uint32_t m = 0; m < handles_.size(); ++m) {
    out.vec_f32(get(m));  // empty vec_f32 for never-allocated devices
  }
}

void ResidualPool::load_state(ckpt::ByteReader& in) {
  const std::uint64_t count = in.u64();
  if (count != handles_.size()) {
    throw ckpt::CorruptPayload("checkpoint: residual count mismatch");
  }
  // Re-allocate in device order; handles may differ from the run that wrote
  // the snapshot (which allocated in participation order), but handle values
  // are internal — per-device contents and the wire format are identical.
  std::fill(handles_.begin(), handles_.end(), kNoSlot);
  allocated_ = 0;
  slab_.clear();
  for (std::uint32_t m = 0; m < handles_.size(); ++m) {
    const std::vector<float> residual = in.vec_f32();
    if (residual.empty()) continue;
    if (residual.size() != stride_) {
      throw ckpt::CorruptPayload("checkpoint: residual size mismatch");
    }
    const std::span<float> dst = get_or_alloc(m);
    std::copy(residual.begin(), residual.end(), dst.begin());
  }
}

}  // namespace mach::hfl
