// Border/interior split shared by im2col and the conv B-panel packer.
// Internal linkage on purpose: the header is included by the ISA
// translation units, and each must get its own copy (DESIGN.md §9).
#pragma once

#include <cstddef>

#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels {
namespace {

/// Output rows (or columns) of a convolution over `extent` input pixels.
inline std::size_t conv_out_extent(std::size_t extent, const ConvShape& s) {
  return (extent + 2 * s.pad - s.kernel) / s.stride + 1;
}

/// Valid half-open output range [lo, hi) for one kernel offset: the set of
/// `o` with 0 <= o * stride + offset < extent, clamped to [0, out_extent).
struct ValidRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

inline ValidRange valid_range(std::ptrdiff_t offset, std::size_t stride,
                              std::size_t extent, std::size_t out_extent) {
  if (stride == 1) {  // division-free: this runs once per im2col row
    const std::ptrdiff_t lo = offset < 0 ? -offset : 0;
    std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(extent) - offset;
    if (hi > static_cast<std::ptrdiff_t>(out_extent)) {
      hi = static_cast<std::ptrdiff_t>(out_extent);
    }
    if (hi <= lo) return {0, 0};
    return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
  }
  const auto sstride = static_cast<std::ptrdiff_t>(stride);
  std::ptrdiff_t lo = 0;
  if (offset < 0) lo = (-offset + sstride - 1) / sstride;
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(extent) - 1 - offset;
  if (last < 0) return {0, 0};
  std::ptrdiff_t hi = last / sstride + 1;
  if (hi > static_cast<std::ptrdiff_t>(out_extent)) {
    hi = static_cast<std::ptrdiff_t>(out_extent);
  }
  if (hi <= lo) return {0, 0};
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

}  // namespace
}  // namespace mach::tensor::kernels
