// Concrete codec factories and the int8 scalar reference (internal to
// src/comm/, its tests and bench/kernels; everything else uses make_codec()).
#pragma once

#include <memory>

#include "comm/codec.h"

namespace mach::comm::detail {

std::unique_ptr<Codec> make_fp32_codec();
std::unique_ptr<Codec> make_bf16_codec();
std::unique_ptr<Codec> make_int8_codec();
/// The scalar int8 loops: the codec's path on CPUs without SSE2, and the
/// reference its SSE2 loops must match byte for byte (encode) and bit for bit
/// (decode). Same contract as Codec::encode / Codec::decode.
void int8_encode_reference(std::span<const float> values, Encoded& out);
void int8_decode_reference(const Encoded& in, std::size_t count,
                           std::vector<float>& out);
std::unique_ptr<Codec> make_topk_codec(double density);

}  // namespace mach::comm::detail
