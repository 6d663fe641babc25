// Output extent of a convolution, shared by the dispatcher and the ISA
// translation units. Internal linkage on purpose: each ISA translation unit
// must get its own copy (DESIGN.md §9).
#pragma once

#include <cstddef>

#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels {
namespace {

/// Output rows (or columns) of a convolution over `extent` input pixels.
inline std::size_t conv_out_extent(std::size_t extent, const ConvShape& s) {
  return (extent + 2 * s.pad - s.kernel) / s.stride + 1;
}

}  // namespace
}  // namespace mach::tensor::kernels
