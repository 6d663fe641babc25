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
// Two implementations of the same rule. On x86-64 encode and decode run as
// SSE2 loops (every x86-64 CPU has SSE2), 16 parameters per iteration; on
// other CPUs, and as the reference the tests and bench/kernels compare the
// vector loops with byte for byte, they are the scalar loops below.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "comm/codec_impl.h"
#include "comm/wire.h"

namespace mach::comm::detail {
namespace {

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
float max_abs_scalar(std::span<const float> values) {
  float max_abs = 0.0f;
  for (const float v : values) {
    const float a = std::fabs(v);
    if (a > max_abs) max_abs = a;
  }
  return max_abs;
}

/// Writes the scale header and sizes the payload to 4 + count bytes, all
/// zero; returns where the count quantised bytes go.
std::uint8_t* begin_payload(Encoded& out, float scale, std::size_t count) {
  out.bytes.clear();
  wire::put_f32(out.bytes, scale);
  out.bytes.resize(4 + count, 0);
  return out.bytes.data() + 4;
}

/// Scalar quantisation against a nonzero scale. When max|x| < 127 / FLT_MAX
/// the reciprocal overflows to +inf, which would send every element —
/// zeros and positives included — to the NaN/overflow code -127; those
/// tensors divide by the scale instead.
void quantise_scalar(std::span<const float> values, float scale,
                     std::uint8_t* q) {
  const float inv_scale = 1.0f / scale;
  if (std::isfinite(inv_scale)) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      q[i] = quantise(values[i] * inv_scale);
    }
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) {
      q[i] = quantise(values[i] / scale);
    }
  }
}

/// Checks the payload size, sizes `out` and returns the header's scale.
float begin_decode(const Encoded& in, std::size_t count,
                   std::vector<float>& out) {
  if (in.bytes.size() != 4 + count) {
    throw std::runtime_error("int8 codec: payload size mismatch");
  }
  out.resize(count);
  return wire::get_f32(in.bytes.data());
}

/// q · scale for each of n bytes.
void dequantise_scalar(const std::uint8_t* q, std::size_t n, float scale,
                       float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(static_cast<std::int8_t>(q[i])) * scale;
  }
}

#if defined(__SSE2__)

/// max|x| over `values`. _mm_max_ps(a, acc) returns acc when a is NaN, as
/// the scalar `if (a > max_abs)` skips it; max is exact, so neither the four
/// accumulators nor the lane order can change the result.
float max_abs_sse2(std::span<const float> values) {
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const float* x = values.data();
  const std::size_t n = values.size();
  __m128 acc0 = _mm_setzero_ps(), acc1 = acc0, acc2 = acc0, acc3 = acc0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i), abs_mask), acc0);
    acc1 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i + 4), abs_mask), acc1);
    acc2 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i + 8), abs_mask), acc2);
    acc3 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i + 12), abs_mask), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_max_ps(_mm_and_ps(_mm_loadu_ps(x + i), abs_mask), acc0);
  }
  const __m128 acc = _mm_max_ps(_mm_max_ps(acc0, acc1), _mm_max_ps(acc2, acc3));
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, acc);
  return std::max({lanes[0], lanes[1], lanes[2], lanes[3],
                   max_abs_scalar(values.subspan(i))});
}

/// Four lanes of quantise() without the clamp: y = x · inv_scale, then
/// trunc(y) plus the sign of y where |y − trunc(y)| ≥ 0.5. For |y| < 2^23
/// both trunc(y) and the fraction are exact, so this is std::lround; the
/// scale keeps |y| below 191. A NaN lane converts to INT32_MIN (the ISA's
/// "integer indefinite"), which the saturating packs turn into -127.
__m128i round_half_away(__m128 x, __m128 inv_scale) {
  const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128 y = _mm_mul_ps(x, inv_scale);
  const __m128i t = _mm_cvttps_epi32(y);
  const __m128 frac = _mm_sub_ps(y, _mm_cvtepi32_ps(t));
  const __m128i away = _mm_castps_si128(
      _mm_cmpge_ps(_mm_and_ps(frac, abs_mask), _mm_set1_ps(0.5f)));
  // ±1 with the sign of y: (y's sign bit smeared) | 1.
  const __m128i unit =
      _mm_or_si128(_mm_srai_epi32(_mm_castps_si128(y), 31), _mm_set1_epi32(1));
  return _mm_add_epi32(t, _mm_and_si128(away, unit));
}

/// Quantises a tensor whose reciprocal scale is finite, 16 parameters per
/// store; the tail runs the scalar rule.
void quantise_sse2(std::span<const float> values, float inv_scale,
                   std::uint8_t* q) {
  const float* x = values.data();
  const std::size_t n = values.size();
  const __m128 inv = _mm_set1_ps(inv_scale);
  const __m128i lo = _mm_set1_epi16(-127), hi = _mm_set1_epi16(127);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i q0 = round_half_away(_mm_loadu_ps(x + i), inv);
    const __m128i q1 = round_half_away(_mm_loadu_ps(x + i + 4), inv);
    const __m128i q2 = round_half_away(_mm_loadu_ps(x + i + 8), inv);
    const __m128i q3 = round_half_away(_mm_loadu_ps(x + i + 12), inv);
    // int32 -> int16 with saturation, clamp to ±127, int16 -> int8.
    const __m128i w01 =
        _mm_min_epi16(_mm_max_epi16(_mm_packs_epi32(q0, q1), lo), hi);
    const __m128i w23 =
        _mm_min_epi16(_mm_max_epi16(_mm_packs_epi32(q2, q3), lo), hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(w01, w23));
  }
  for (; i < n; ++i) q[i] = quantise(x[i] * inv_scale);
}

/// q · scale for every byte, 16 per iteration: sign-extend to 32 bits,
/// convert (exact) and multiply — one multiply per element, as the scalar
/// loop does.
void dequantise_sse2(const std::uint8_t* q, std::size_t n, float scale,
                     float* out) {
  const __m128 s = _mm_set1_ps(scale);
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m128i b_sign = _mm_cmpgt_epi8(zero, b);
    const __m128i w_lo = _mm_unpacklo_epi8(b, b_sign);
    const __m128i w_hi = _mm_unpackhi_epi8(b, b_sign);
    const __m128i lo_sign = _mm_cmpgt_epi16(zero, w_lo);
    const __m128i hi_sign = _mm_cmpgt_epi16(zero, w_hi);
    const __m128i d0 = _mm_unpacklo_epi16(w_lo, lo_sign);
    const __m128i d1 = _mm_unpackhi_epi16(w_lo, lo_sign);
    const __m128i d2 = _mm_unpacklo_epi16(w_hi, hi_sign);
    const __m128i d3 = _mm_unpackhi_epi16(w_hi, hi_sign);
    _mm_storeu_ps(out + i, _mm_mul_ps(_mm_cvtepi32_ps(d0), s));
    _mm_storeu_ps(out + i + 4, _mm_mul_ps(_mm_cvtepi32_ps(d1), s));
    _mm_storeu_ps(out + i + 8, _mm_mul_ps(_mm_cvtepi32_ps(d2), s));
    _mm_storeu_ps(out + i + 12, _mm_mul_ps(_mm_cvtepi32_ps(d3), s));
  }
  dequantise_scalar(q + i, n - i, scale, out + i);
}

#endif  // __SSE2__

class Int8Codec final : public Codec {
 public:
  CodecKind kind() const noexcept override { return CodecKind::Int8; }
  std::string to_string() const override { return "int8"; }

  std::size_t encoded_bytes(std::size_t count) const noexcept override {
    return 4 + count;
  }

  void encode(std::span<const float> values, std::span<const float> /*reference*/,
              std::span<float> /*residual*/, Encoded& out) const override {
#if defined(__SSE2__)
    const float scale = max_abs_sse2(values) / 127.0f;
    std::uint8_t* q = begin_payload(out, scale, values.size());
    if (scale == 0.0f) return;
    const float inv_scale = 1.0f / scale;
    if (std::isfinite(inv_scale)) {
      quantise_sse2(values, inv_scale, q);
    } else {
      quantise_scalar(values, scale, q);
    }
#else
    int8_encode_reference(values, out);
#endif
  }

  void decode(const Encoded& in, std::size_t count,
              std::span<const float> /*reference*/,
              std::vector<float>& out) const override {
#if defined(__SSE2__)
    const float scale = begin_decode(in, count, out);
    dequantise_sse2(in.bytes.data() + 4, count, scale, out.data());
#else
    int8_decode_reference(in, count, out);
#endif
  }
};

}  // namespace

void int8_encode_reference(std::span<const float> values, Encoded& out) {
  const float scale = max_abs_scalar(values) / 127.0f;
  std::uint8_t* q = begin_payload(out, scale, values.size());
  if (scale != 0.0f) quantise_scalar(values, scale, q);
}

void int8_decode_reference(const Encoded& in, std::size_t count,
                           std::vector<float>& out) {
  const float scale = begin_decode(in, count, out);
  dequantise_scalar(in.bytes.data() + 4, count, scale, out.data());
}

std::unique_ptr<Codec> make_int8_codec() { return std::make_unique<Int8Codec>(); }

}  // namespace mach::comm::detail
