// int8: per-tensor symmetric quantisation. One fp32 scale = max|x| / 127
// heads the payload, followed by one signed byte per parameter:
// q = round_half_away(x · (1/scale)) clamped to [-127, 127], decoded as
// q·scale. Multiplying by the reciprocal is the wire rule: it can differ from
// x / scale in the last bit, which can move a value across a rounding tie.
// The one exception is a tensor with max|x| < 127 / FLT_MAX (≈ 3.7e-37),
// whose reciprocal overflows to +inf: it is quantised as x / scale instead.
// NaN encodes as -127.
//
// Symmetric (no zero point) keeps 0 exactly representable — federated deltas
// and freshly-initialised layers are zero-heavy — and the absolute error is
// at most scale/2 everywhere except the clamp boundary, where it is still
// below scale. An all-zero tensor encodes scale = 0 and decodes exactly.
//
// This file keeps the wire rule: the scale header, the all-zero payload of
// a zero scale and the scalar x / scale branch for tiny tensors. Its three
// vector loops — max|x|, quantisation against a finite reciprocal and
// dequantisation — are kernel entries (kernels::int8_max_abs,
// int8_quantise, int8_dequantise), one per instruction-set variant like the
// GEMMs, so they run 4, 8 or 16 floats wide. The scalar loops below are the
// reference the tests and bench/kernels compare every variant's entries
// with, byte for byte.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "comm/codec_impl.h"
#include "comm/wire.h"
#include "tensor/kernels/gemm_variants.h"
#include "tensor/kernels/kernels.h"

namespace mach::comm::detail {
namespace {

namespace kernels = tensor::kernels;

/// The wire rule for one element y = x · (1/scale) (x / scale for a tiny
/// tensor): round half away from zero with std::lround — the scale keeps
/// |y| below 191, where it is exact — and clamp to [-127, 127]. NaN (a NaN
/// input, or ±inf times the zero reciprocal of an infinite scale) encodes
/// as -127.
std::uint8_t quantise(float y) {
  const long q =
      std::isnan(y) ? -127L : std::clamp(std::lround(y), -127L, 127L);
  return static_cast<std::uint8_t>(static_cast<std::int8_t>(q));
}

/// max|x|; NaN never sets it (a > max_abs is false).
float max_abs_scalar(std::size_t n, const float* x) {
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > max_abs) max_abs = a;
  }
  return max_abs;
}

void quantise_scalar(std::size_t n, const float* x, float inv_scale,
                     std::uint8_t* q) {
  for (std::size_t i = 0; i < n; ++i) q[i] = quantise(x[i] * inv_scale);
}

/// q · scale for each of n bytes.
void dequantise_scalar(std::size_t n, const std::uint8_t* q, float scale,
                       float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(static_cast<std::int8_t>(q[i])) * scale;
  }
}

/// One implementation of the three loops (kernels.h's contracts).
struct Int8Loops {
  float (*max_abs)(std::size_t n, const float* x);
  void (*quantise)(std::size_t n, const float* x, float inv_scale,
                   std::uint8_t* q);
  void (*dequantise)(std::size_t n, const std::uint8_t* q, float scale,
                     float* out);
};

constexpr Int8Loops kScalarLoops = {&max_abs_scalar, &quantise_scalar,
                                    &dequantise_scalar};
constexpr Int8Loops kKernelLoops = {&kernels::int8_max_abs,
                                    &kernels::int8_quantise,
                                    &kernels::int8_dequantise};

Int8Loops variant_loops(const kernels::detail::GemmVariant& variant) {
  return {variant.int8_max_abs, variant.int8_quantise,
          variant.int8_dequantise};
}

/// The wire rule. The payload is sized once and each byte written once:
/// a reused buffer's old bytes are all overwritten.
void encode_with(const Int8Loops& loops, std::span<const float> values,
                 Encoded& out) {
  const std::size_t n = values.size();
  const float* x = values.data();
  const float scale = loops.max_abs(n, x) / 127.0f;
  out.bytes.resize(4 + n);
  wire::set_f32(out.bytes.data(), scale);
  std::uint8_t* q = out.bytes.data() + 4;
  if (scale == 0.0f) {  // every |x| is 0 (or NaN): every code is 0
    std::fill_n(q, n, std::uint8_t{0});
    return;
  }
  const float inv_scale = 1.0f / scale;
  if (std::isfinite(inv_scale)) {
    loops.quantise(n, x, inv_scale, q);
  } else {
    // max|x| < 127 / FLT_MAX: the reciprocal overflows to +inf, which would
    // send every element — zeros and positives included — to the
    // NaN/overflow code -127, so these tensors divide by the scale.
    for (std::size_t i = 0; i < n; ++i) q[i] = quantise(x[i] / scale);
  }
}

void decode_with(const Int8Loops& loops, const Encoded& in, std::size_t count,
                 std::vector<float>& out) {
  if (in.bytes.size() != 4 + count) {
    throw std::runtime_error("int8 codec: payload size mismatch");
  }
  out.resize(count);
  loops.dequantise(count, in.bytes.data() + 4, wire::get_f32(in.bytes.data()),
                   out.data());
}

class Int8Codec final : public Codec {
 public:
  CodecKind kind() const noexcept override { return CodecKind::Int8; }
  std::string to_string() const override { return "int8"; }

  std::size_t encoded_bytes(std::size_t count) const noexcept override {
    return 4 + count;
  }

  void encode(std::span<const float> values, std::span<const float> /*reference*/,
              std::span<float> /*residual*/, Encoded& out) const override {
    encode_with(kKernelLoops, values, out);
  }

  void decode(const Encoded& in, std::size_t count,
              std::span<const float> /*reference*/,
              std::vector<float>& out) const override {
    decode_with(kKernelLoops, in, count, out);
  }
};

}  // namespace

void int8_encode_reference(std::span<const float> values, Encoded& out) {
  encode_with(kScalarLoops, values, out);
}

void int8_decode_reference(const Encoded& in, std::size_t count,
                           std::vector<float>& out) {
  decode_with(kScalarLoops, in, count, out);
}

void int8_encode(const tensor::kernels::detail::GemmVariant& variant,
                 std::span<const float> values, Encoded& out) {
  encode_with(variant_loops(variant), values, out);
}

void int8_decode(const tensor::kernels::detail::GemmVariant& variant,
                 const Encoded& in, std::size_t count,
                 std::vector<float>& out) {
  decode_with(variant_loops(variant), in, count, out);
}

std::unique_ptr<Codec> make_int8_codec() { return std::make_unique<Int8Codec>(); }

}  // namespace mach::comm::detail
