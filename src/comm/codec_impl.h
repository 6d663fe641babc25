// Concrete codec factories, the int8 scalar reference and the int8 codec on
// one kernel variant (internal to src/comm/, its tests and bench/kernels;
// everything else uses make_codec()).
#pragma once

#include <memory>

#include "comm/codec.h"

namespace mach::tensor::kernels::detail {
struct GemmVariant;
}

namespace mach::comm::detail {

std::unique_ptr<Codec> make_fp32_codec();
std::unique_ptr<Codec> make_bf16_codec();
std::unique_ptr<Codec> make_int8_codec();
/// The int8 wire rule on scalar loops: the reference every kernel variant's
/// int8 entries must match byte for byte (encode) and bit for bit (decode).
/// Same contract as Codec::encode / Codec::decode.
void int8_encode_reference(std::span<const float> values, Encoded& out);
void int8_decode_reference(const Encoded& in, std::size_t count,
                           std::vector<float>& out);
/// The int8 wire rule on `variant`'s int8 entries (the codec runs the active
/// variant's), so tests and bench/kernels reach every variant the CPU runs.
void int8_encode(const tensor::kernels::detail::GemmVariant& variant,
                 std::span<const float> values, Encoded& out);
void int8_decode(const tensor::kernels::detail::GemmVariant& variant,
                 const Encoded& in, std::size_t count, std::vector<float>& out);
std::unique_ptr<Codec> make_topk_codec(double density);

}  // namespace mach::comm::detail
