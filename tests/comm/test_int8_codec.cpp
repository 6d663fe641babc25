// The int8 codec's vector loops — the codec itself (the active kernel
// variant) and every kernel variant this CPU runs (baseline, AVX2, AVX-512:
// 4, 8 or 16 floats wide) — against its retained scalar reference: the
// encoded bytes must be identical and the decoded floats bit-identical, over
// every tail length, exact rounding ties, special values and both sides of
// the tiny-tensor threshold. Also pins the tiny-tensor fix: a tensor whose
// 1/scale overflows keeps zeros and signs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/codec_impl.h"
#include "common/cpu_isa.h"
#include "common/rng.h"
#include "tensor/kernels/gemm_variants.h"

namespace mach::comm {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
constexpr float kFloatMin = std::numeric_limits<float>::min();

/// Below this max|x| the reciprocal of scale = max|x| / 127 overflows.
const float kTinyThreshold = 127.0f / std::numeric_limits<float>::max();

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << label << " index " << i;
  }
}

/// Encodes `values` with the production codec, with every kernel variant's
/// int8 entries and with the scalar reference, and expects identical bytes;
/// then decodes those bytes each way and expects bit-identical floats.
void expect_matches_reference(const std::vector<float>& values,
                              const std::string& label) {
  const auto codec = make_codec({.kind = CodecKind::Int8});
  Encoded got, want;
  codec->encode(values, {}, {}, got);
  detail::int8_encode_reference(values, want);
  ASSERT_EQ(want.bytes.size(), codec->encoded_bytes(values.size())) << label;
  ASSERT_EQ(got.bytes, want.bytes) << label;
  std::vector<float> got_out, want_out;
  codec->decode(got, values.size(), {}, got_out);
  detail::int8_decode_reference(want, values.size(), want_out);
  expect_same_bits(got_out, want_out, label);
  for (const auto* v : tensor::kernels::detail::host_variants()) {
    const std::string isa =
        label + " " + std::string(common::gemm_isa_name(v->isa));
    detail::int8_encode(*v, values, got);
    ASSERT_EQ(got.bytes, want.bytes) << isa;
    detail::int8_decode(*v, want, values.size(), got_out);
    expect_same_bits(got_out, want_out, isa);
  }
}

std::vector<float> normal_tensor(common::Rng& rng, std::size_t count) {
  std::vector<float> values(count);
  for (float& v : values) v = static_cast<float>(rng.normal());
  return values;
}

TEST(Int8Codec, MatchesReferenceAtEveryTailLength) {
  common::Rng rng(0x1a8);
  // 0-140 covers every length mod 64 (four 16-wide vectors, the widest
  // variant's quantisation step) at least twice; the three large sizes are
  // the benchmark models' parameter counts.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 140; ++n) lengths.push_back(n);
  for (std::size_t n : {2410u, 6218u, 14938u}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    expect_matches_reference(normal_tensor(rng, n), "n=" + std::to_string(n));
  }
}

TEST(Int8Codec, ExactTiesRoundHalfAwayFromZero) {
  // max|x| = 127·2^-3 gives scale = 2^-3 and 1/scale = 8 exactly, so
  // ±(k+½)·scale quantises from an exact tie y = ±(k+½).
  const float scale = 0.125f;
  std::vector<float> values = {127.0f * scale};
  for (int k = 0; k < 127; ++k) {
    values.push_back((static_cast<float>(k) + 0.5f) * scale);
    values.push_back(-(static_cast<float>(k) + 0.5f) * scale);
  }
  expect_matches_reference(values, "ties");
  const auto codec = make_codec({.kind = CodecKind::Int8});
  Encoded wire;
  codec->encode(values, {}, {}, wire);
  for (int k = 0; k < 127; ++k) {
    const auto pos = static_cast<std::int8_t>(wire.bytes[4 + 1 + 2 * k]);
    const auto neg = static_cast<std::int8_t>(wire.bytes[4 + 2 + 2 * k]);
    EXPECT_EQ(pos, k + 1) << "+(" << k << "+1/2)";
    EXPECT_EQ(neg, -(k + 1)) << "-(" << k << "+1/2)";
  }
  // Near-ties under a scale whose reciprocal is inexact: y lands a rounding
  // error away from k+½, on either side.
  for (const float max_abs : {1.0f, 0.3f, 7.77f, 1e-20f, 3e20f}) {
    const float s = max_abs / 127.0f;
    std::vector<float> near = {max_abs, -max_abs};
    for (int k = 0; k < 127; ++k) {
      const float tie = (static_cast<float>(k) + 0.5f) * s;
      for (const float v : {tie, std::nextafter(tie, 0.0f),
                            std::nextafter(tie, kInf)}) {
        near.push_back(v);
        near.push_back(-v);
      }
    }
    expect_matches_reference(near, "near ties, max " + std::to_string(max_abs));
  }
}

TEST(Int8Codec, MatchesReferenceOnSpecialValues) {
  const std::vector<float> specials = {0.0f,       -0.0f,        kNaN,
                                       -kNaN,      kDenormMin,   -kDenormMin,
                                       kFloatMin,  -kFloatMin,   1e-40f,
                                       -3e-39f,    1.0f,         -1.0f};
  // Every special at every position of a 16-wide vector, a block of four,
  // and their tails.
  for (std::size_t n : {1u, 7u, 16u, 17u, 35u, 79u}) {
    for (const float special : specials) {
      for (std::size_t at = 0; at < n; ++at) {
        common::Rng rng(n * 131 + at);
        std::vector<float> values = normal_tensor(rng, n);
        values[at] = special;
        expect_matches_reference(values, "n=" + std::to_string(n) + " at " +
                                             std::to_string(at));
      }
    }
  }
  // A NaN never displaces the maximum, wherever the two fall among the
  // blocks of four vectors, the single vectors, the fringe and the lanes.
  for (std::size_t n : {20u, 29u, 35u, 75u}) {
    for (std::size_t nan_at = 0; nan_at < n; ++nan_at) {
      for (std::size_t max_at = 0; max_at < n; ++max_at) {
        if (max_at == nan_at) continue;
        std::vector<float> values(n, 0.5f);
        values[max_at] = -3.0f;
        values[nan_at] = kNaN;
        expect_matches_reference(values, "nan at " + std::to_string(nan_at) +
                                             " max at " +
                                             std::to_string(max_at));
      }
    }
  }
  // ±inf makes the scale infinite: finite entries quantise to 0 and the
  // infinities (inf · 0 = NaN) to -127.
  for (const float inf : {kInf, -kInf}) {
    common::Rng rng(7);
    std::vector<float> values = normal_tensor(rng, 21);
    values[3] = inf;
    values[18] = kNaN;
    expect_matches_reference(values, "inf");
    const auto codec = make_codec({.kind = CodecKind::Int8});
    Encoded wire;
    codec->encode(values, {}, {}, wire);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto q = static_cast<std::int8_t>(wire.bytes[4 + i]);
      EXPECT_EQ(q, std::isfinite(values[i]) ? 0 : -127) << i;
    }
  }
  // NaN under a finite scale encodes as -127 (it never sets the scale).
  std::vector<float> values(19, 0.25f);
  values[0] = 1.0f;
  values[5] = kNaN;
  values[17] = -kNaN;
  expect_matches_reference(values, "nan");
  const auto codec = make_codec({.kind = CodecKind::Int8});
  Encoded wire;
  codec->encode(values, {}, {}, wire);
  EXPECT_EQ(static_cast<std::int8_t>(wire.bytes[4 + 5]), -127);
  EXPECT_EQ(static_cast<std::int8_t>(wire.bytes[4 + 17]), -127);
  EXPECT_EQ(static_cast<std::int8_t>(wire.bytes[4 + 0]), 127);
}

TEST(Int8Codec, AllZeroTensorsMatchReference) {
  for (std::size_t n : {0u, 1u, 15u, 16u, 33u, 2410u}) {
    expect_matches_reference(std::vector<float>(n, 0.0f), "zeros");
    std::vector<float> signed_zeros(n, -0.0f);
    for (std::size_t i = 0; i < n; i += 3) signed_zeros[i] = 0.0f;
    expect_matches_reference(signed_zeros, "signed zeros");
  }
}

/// The three properties a tiny tensor must keep: exact zeros, no sign flip,
/// and no decoded magnitude above max|x| by more than half a grid step
/// (the scale is subnormal here, so it can round up by a sizeable fraction
/// of itself, and q·scale with it).
void expect_tiny_properties(const std::vector<float>& values,
                            const std::vector<float>& out,
                            const std::string& label) {
  float max_abs = 0.0f;
  for (const float v : values) max_abs = std::max(max_abs, std::fabs(v));
  const float half_step = 0.5f * (max_abs / 127.0f);
  ASSERT_EQ(out.size(), values.size()) << label;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] == 0.0f) {
      ASSERT_EQ(out[i], 0.0f) << label << " index " << i;
    }
    ASSERT_FALSE(values[i] > 0.0f && out[i] < 0.0f) << label << " index " << i;
    ASSERT_FALSE(values[i] < 0.0f && out[i] > 0.0f) << label << " index " << i;
    ASSERT_LE(std::fabs(out[i]), max_abs + half_step)
        << label << " index " << i << " value " << values[i];
  }
}

TEST(Int8Codec, TinyTensorKeepsZerosAndSigns) {
  // max|x| = 3e-38 < 127 / FLT_MAX: 1/scale overflows to +inf, which used
  // to encode every element — zeros and positives too — as -127.
  const std::vector<float> values = {1e-38f, -2e-38f, 0.0f, 5e-39f, 3e-38f};
  const auto codec = make_codec({.kind = CodecKind::Int8});
  Encoded wire;
  codec->encode(values, {}, {}, wire);
  std::vector<float> out;
  codec->decode(wire, values.size(), {}, out);
  expect_tiny_properties(values, out, "tiny");
  // Within half a grid step of the input, as for any other tensor. (The
  // subnormal scale rounds up here: 3e-38 itself decodes as 3.00001e-38.)
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(out[i], values[i], 0.5f * (3e-38f / 127.0f) * 1.001f) << i;
  }
  expect_matches_reference(values, "tiny");
}

TEST(Int8Codec, MatchesReferenceAcrossTheTinyThreshold) {
  // Walk max|x| ulp by ulp across 127 / FLT_MAX, where 1/scale starts to
  // overflow, checking both paths agree and tiny tensors keep their signs.
  float max_abs = kTinyThreshold;
  for (int step = 0; step < 8; ++step) max_abs = std::nextafter(max_abs, 0.0f);
  bool saw_finite = false, saw_overflow = false;
  common::Rng rng(0x7e9);
  for (int step = 0; step < 16; ++step) {
    const bool overflows = !std::isfinite(1.0f / (max_abs / 127.0f));
    (overflows ? saw_overflow : saw_finite) = true;
    std::vector<float> values(37);
    for (float& v : values) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0)) * max_abs;
    }
    values[4] = 0.0f;
    values[29] = -max_abs;
    const std::string label = "max " + std::to_string(step);
    expect_matches_reference(values, label);
    const auto codec = make_codec({.kind = CodecKind::Int8});
    Encoded wire;
    codec->encode(values, {}, {}, wire);
    std::vector<float> out;
    codec->decode(wire, values.size(), {}, out);
    expect_tiny_properties(values, out, label);
    max_abs = std::nextafter(max_abs, kInf);
  }
  EXPECT_TRUE(saw_finite);
  EXPECT_TRUE(saw_overflow);
}

TEST(Int8Codec, DecodeMatchesReferenceForEveryByte) {
  // Every byte value (including -128, which no encoder emits) at every
  // position mod 16, under normal, subnormal, zero and non-finite scales,
  // on the codec and on every kernel variant.
  std::vector<float> values(256 + 13);
  Encoded wire;
  wire.bytes.resize(4 + values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    wire.bytes[4 + i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto codec = make_codec({.kind = CodecKind::Int8});
  for (const float scale : {0.0078125f, 3.3e-3f, 1e-40f, 0.0f, -0.0f, kInf,
                            kNaN, 2e36f}) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(scale);
    for (int b = 0; b < 4; ++b) {
      wire.bytes[b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
    std::vector<float> got, want;
    codec->decode(wire, values.size(), {}, got);
    detail::int8_decode_reference(wire, values.size(), want);
    const std::string label = "scale " + std::to_string(scale);
    expect_same_bits(got, want, label);
    for (const auto* v : tensor::kernels::detail::host_variants()) {
      detail::int8_decode(*v, wire, values.size(), got);
      expect_same_bits(got, want, label + " " + common::gemm_isa_name(v->isa));
    }
  }
  EXPECT_THROW(codec->decode(wire, values.size() + 1, {}, values),
               std::runtime_error);
  EXPECT_THROW(detail::int8_decode_reference(wire, values.size() + 1, values),
               std::runtime_error);
}

}  // namespace
}  // namespace mach::comm
