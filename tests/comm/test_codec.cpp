// Unit coverage of the transfer codecs (src/comm/): spec parsing, wire
// layouts, per-codec error semantics, and the top-k error-feedback contract.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "comm/codec.h"
#include "comm/config.h"
#include "comm/wire.h"

namespace mach::comm {
namespace {

std::vector<float> roundtrip(const Codec& codec, std::span<const float> values,
                             std::span<const float> reference = {},
                             std::span<float> residual = {}) {
  Encoded wire;
  codec.encode(values, reference, residual, wire);
  EXPECT_EQ(wire.bytes.size(), codec.encoded_bytes(values.size()));
  std::vector<float> out;
  codec.decode(wire, values.size(), reference, out);
  return out;
}

TEST(CodecSpec, ParsesEveryKindAndRoundTrips) {
  EXPECT_EQ(CodecSpec::parse("fp32").kind, CodecKind::Fp32);
  EXPECT_EQ(CodecSpec::parse("bf16").kind, CodecKind::Bf16);
  EXPECT_EQ(CodecSpec::parse("int8").kind, CodecKind::Int8);
  const CodecSpec topk = CodecSpec::parse("topk:k=0.05");
  EXPECT_EQ(topk.kind, CodecKind::TopK);
  EXPECT_DOUBLE_EQ(topk.topk_density, 0.05);
  // Default density when no parameter is given.
  EXPECT_DOUBLE_EQ(CodecSpec::parse("topk").topk_density, 0.01);
  for (const char* spec : {"fp32", "bf16", "int8", "topk:k=0.25"}) {
    const CodecSpec parsed = CodecSpec::parse(spec);
    EXPECT_EQ(CodecSpec::parse(parsed.to_string()), parsed) << spec;
  }
}

TEST(CodecSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(CodecSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("fp16"), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("topk:k=0"), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("topk:k=1.5"), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("topk:k=-0.1"), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("topk:k=abc"), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("topk:density=0.1"), std::invalid_argument);
  EXPECT_THROW(CodecSpec::parse("fp32:k=0.1"), std::invalid_argument);
}

TEST(CommConfig, UniformAndPerLinkClauses) {
  const CommConfig uniform = CommConfig::parse("int8");
  EXPECT_EQ(uniform.device_up.kind, CodecKind::Int8);
  EXPECT_EQ(uniform.device_down.kind, CodecKind::Int8);
  EXPECT_EQ(uniform.probe.kind, CodecKind::Int8);
  EXPECT_EQ(uniform.edge_up.kind, CodecKind::Int8);
  EXPECT_EQ(uniform.cloud_down.kind, CodecKind::Int8);
  EXPECT_FALSE(uniform.all_fp32());

  const CommConfig mixed = CommConfig::parse("up=topk:k=0.05,down=bf16");
  EXPECT_EQ(mixed.device_up.kind, CodecKind::TopK);
  EXPECT_DOUBLE_EQ(mixed.device_up.topk_density, 0.05);
  EXPECT_EQ(mixed.device_down.kind, CodecKind::Bf16);
  // Unlisted links stay fp32.
  EXPECT_EQ(mixed.probe.kind, CodecKind::Fp32);
  EXPECT_EQ(mixed.edge_up.kind, CodecKind::Fp32);
  EXPECT_EQ(mixed.cloud_down.kind, CodecKind::Fp32);

  EXPECT_TRUE(CommConfig::parse("fp32").all_fp32());
  EXPECT_TRUE(CommConfig{}.all_fp32());
  // Canonical string round-trips through parse.
  for (const char* spec :
       {"fp32", "bf16", "up=topk:k=0.05,down=bf16,probe=int8",
        "edge_up=int8,cloud_down=bf16"}) {
    const CommConfig parsed = CommConfig::parse(spec);
    EXPECT_EQ(CommConfig::parse(parsed.to_string()), parsed) << spec;
  }
}

TEST(CommConfig, RejectsUnknownLinksAndDuplicates) {
  EXPECT_THROW(CommConfig::parse("sideways=int8"), std::invalid_argument);
  EXPECT_THROW(CommConfig::parse("up=int8,up=bf16"), std::invalid_argument);
  EXPECT_THROW(CommConfig::parse("up=nope"), std::invalid_argument);
  EXPECT_THROW(CommConfig::parse(""), std::invalid_argument);
}

TEST(Fp32Codec, BitExactRoundTripIncludingSpecials) {
  const auto codec = make_codec({.kind = CodecKind::Fp32});
  EXPECT_TRUE(codec->lossless());
  EXPECT_FALSE(codec->is_delta());
  EXPECT_FALSE(codec->stateful());
  EXPECT_EQ(codec->encoded_bytes(10), 40u);
  const std::vector<float> values = {
      0.0f, -0.0f, 1.0f, -1.5f, 3.1415926f,
      std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::min()};
  const std::vector<float> out = roundtrip(*codec, values);
  ASSERT_EQ(out.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(values[i]))
        << i;
  }
}

TEST(Bf16Codec, TruncationMatchesTheBitfieldIdiom) {
  const auto codec = make_codec({.kind = CodecKind::Bf16});
  EXPECT_FALSE(codec->lossless());
  EXPECT_EQ(codec->encoded_bytes(10), 20u);
  const std::vector<float> values = {1.0f,       -2.75f, 0.1f, 1e-30f,
                                     -12345.6f, 0.0f,   -0.0f, 65504.0f};
  const std::vector<float> out = roundtrip(*codec, values);
  ASSERT_EQ(out.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // The reference semantics: keep the high 16 bits of the IEEE-754 word
    // (sign, exponent, top 7 mantissa bits), zero the rest.
    const std::uint32_t expected =
        std::bit_cast<std::uint32_t>(values[i]) & 0xffff0000u;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i]), expected) << i;
    // Relative error bound for normal values: < 2^-7.
    if (std::fabs(values[i]) >= std::numeric_limits<float>::min()) {
      EXPECT_LE(std::fabs(out[i] - values[i]),
                std::ldexp(std::fabs(values[i]), -7))
          << i;
    }
  }
  // Truncation is idempotent: re-encoding the decoded tensor is lossless.
  const std::vector<float> again = roundtrip(*codec, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(again[i]),
              std::bit_cast<std::uint32_t>(out[i]))
        << i;
  }
}

TEST(Int8Codec, SymmetricQuantisationBounds) {
  const auto codec = make_codec({.kind = CodecKind::Int8});
  EXPECT_EQ(codec->encoded_bytes(10), 14u);  // 4-byte scale + 1 byte/param
  const std::vector<float> values = {0.5f, -1.0f, 0.0f, 0.9999f, -0.25f, 1.0f};
  float max_abs = 0.0f;
  for (const float v : values) max_abs = std::max(max_abs, std::fabs(v));
  const float scale = max_abs / 127.0f;
  const std::vector<float> out = roundtrip(*codec, values);
  ASSERT_EQ(out.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Round-to-nearest: absolute error ≤ scale/2 (plus float slack).
    EXPECT_LE(std::fabs(out[i] - values[i]), scale * 0.5f + 1e-6f) << i;
    // Every output is an exact grid point q * scale with q in [-127, 127].
    const float q = out[i] / scale;
    EXPECT_NEAR(q, std::round(q), 1e-3) << i;
    EXPECT_LE(std::fabs(q), 127.5f) << i;
  }
  // The extremes survive exactly: |max| maps to ±127 * scale == ±max.
  EXPECT_FLOAT_EQ(out[1], -1.0f);
  EXPECT_FLOAT_EQ(out[5], 1.0f);
}

TEST(Int8Codec, AllZeroTensorUsesZeroScale) {
  const auto codec = make_codec({.kind = CodecKind::Int8});
  const std::vector<float> values(17, 0.0f);
  const std::vector<float> out = roundtrip(*codec, values);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(TopKCodec, SelectsLargestMagnitudeCorrectedEntries) {
  // density 0.5 of 6 entries -> k = 3.
  const auto codec = make_codec({.kind = CodecKind::TopK, .topk_density = 0.5});
  EXPECT_TRUE(codec->is_delta());
  EXPECT_TRUE(codec->stateful());
  EXPECT_EQ(codec->encoded_bytes(6), 4u + 8u * 3u);

  const std::vector<float> reference = {1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<float> values = {1.5f, 1.0f, 0.0f, 1.1f, 3.0f, 0.9f};
  // corrected = values - reference = {0.5, 0, -1, 0.1, 2, -0.1}
  // top-3 by |.|: indices 4 (2.0), 2 (-1.0), 0 (0.5).
  std::vector<float> residual(values.size(), 0.0f);
  Encoded wire;
  codec->encode(values, reference, residual, wire);
  std::vector<float> out;
  codec->decode(wire, values.size(), reference, out);
  ASSERT_EQ(out.size(), values.size());
  // Transmitted coordinates reconstruct exactly; others fall back to the
  // reference.
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);   // reference (delta 0 untransmitted)
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 1.0f);   // reference (delta 0.1 withheld)
  EXPECT_FLOAT_EQ(out[4], 3.0f);
  EXPECT_FLOAT_EQ(out[5], 1.0f);   // reference (delta -0.1 withheld)
  // Error feedback banks exactly what was withheld.
  ASSERT_EQ(residual.size(), values.size());
  EXPECT_FLOAT_EQ(residual[0], 0.0f);
  EXPECT_FLOAT_EQ(residual[3], 0.1f);
  EXPECT_FLOAT_EQ(residual[5], -0.1f);
  EXPECT_FLOAT_EQ(residual[2], 0.0f);  // sent -> zeroed
  EXPECT_FLOAT_EQ(residual[4], 0.0f);
}

TEST(TopKCodec, ErrorFeedbackResidualFeedsTheNextMessage) {
  const auto codec = make_codec({.kind = CodecKind::TopK, .topk_density = 0.25});
  const std::vector<float> reference(8, 0.0f);
  const std::vector<float> values = {0.4f, -0.3f, 0.2f, -0.1f,
                                     0.05f, 1.0f,  0.0f, -0.02f};
  std::vector<float> residual(values.size(), 0.0f);
  Encoded wire;
  // k = ceil(0.25 * 8) = 2: first message ships indices 5 (1.0) and 0 (0.4).
  codec->encode(values, reference, residual, wire);
  std::vector<float> first;
  codec->decode(wire, values.size(), reference, first);
  EXPECT_FLOAT_EQ(first[5], 1.0f);
  EXPECT_FLOAT_EQ(first[0], 0.4f);
  EXPECT_FLOAT_EQ(first[1], 0.0f);
  EXPECT_FLOAT_EQ(residual[1], -0.3f);

  // Second message with identical values: corrected = values + residual, so
  // the previously-withheld -0.3 at index 1 now outranks 0.2 at index 2 —
  // error feedback guarantees starved coordinates eventually transmit.
  codec->encode(values, reference, residual, wire);
  std::vector<float> second;
  codec->decode(wire, values.size(), reference, second);
  EXPECT_FLOAT_EQ(second[5], 1.0f);           // 1.0 + 0 still top
  EXPECT_FLOAT_EQ(second[1], -0.3f + -0.3f);  // banked + fresh outranks 0.4
  EXPECT_FLOAT_EQ(residual[1], 0.0f);
  EXPECT_FLOAT_EQ(residual[0], 0.4f);  // sent in msg 1, withheld in msg 2
}

TEST(TopKCodec, SentPlusResidualEqualsCorrectedBitwise) {
  const auto codec = make_codec({.kind = CodecKind::TopK, .topk_density = 0.3});
  const std::vector<float> reference = {0.5f, -0.5f, 0.25f, 0.0f, 2.0f,
                                        -1.0f, 0.125f, 0.75f, -0.375f, 1.5f};
  const std::vector<float> values = {0.55f, -0.52f, 0.5f, -0.25f, 2.5f,
                                     -1.01f, 0.125f, 0.25f, -0.375f, 1.25f};
  std::vector<float> residual(reference.size(), 0.0f);
  residual[3] = 0.75f;
  const std::vector<float> residual_before = residual;
  Encoded wire;
  codec->encode(values, reference, residual, wire);
  // Mass conservation, bitwise: every corrected entry is either transmitted
  // exactly (and its residual zeroed) or banked exactly into the residual.
  // Parse the wire directly — reconstructing "sent" as decode(...) - reference
  // would reintroduce float rounding.
  const std::uint32_t k = wire::get_u32(wire.bytes.data());
  std::vector<bool> sent(values.size(), false);
  for (std::uint32_t j = 0; j < k; ++j) {
    const std::uint32_t idx = wire::get_u32(wire.bytes.data() + 4 + 4 * j);
    const float payload = wire::get_f32(wire.bytes.data() + 4 + 4 * k + 4 * j);
    ASSERT_LT(idx, values.size());
    sent[idx] = true;
    const float corrected =
        (values[idx] - reference[idx]) + residual_before[idx];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(payload),
              std::bit_cast<std::uint32_t>(corrected))
        << idx;
    EXPECT_EQ(residual[idx], 0.0f) << idx;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (sent[i]) continue;
    const float corrected = (values[i] - reference[i]) + residual_before[i];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(residual[i]),
              std::bit_cast<std::uint32_t>(corrected))
        << i;
  }
  // Untransmitted coordinates decode to the reference exactly.
  std::vector<float> out;
  codec->decode(wire, values.size(), reference, out);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!sent[i]) {
      EXPECT_EQ(out[i], reference[i]) << i;
    }
  }
}

TEST(TopKCodec, MemorylessModeSparsifiesRawValues) {
  const auto codec = make_codec({.kind = CodecKind::TopK, .topk_density = 0.4});
  // Empty reference + null residual: plain magnitude top-k (the broadcast
  // semantic). k = ceil(0.4 * 5) = 2.
  const std::vector<float> values = {0.1f, -5.0f, 0.2f, 3.0f, -0.3f};
  const std::vector<float> out = roundtrip(*codec, values);
  EXPECT_FLOAT_EQ(out[1], -5.0f);
  EXPECT_FLOAT_EQ(out[3], 3.0f);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[4], 0.0f);
}

TEST(TopKCodec, DeterministicTieBreakByIndex) {
  const auto codec = make_codec({.kind = CodecKind::TopK, .topk_density = 0.5});
  // All-equal magnitudes: the lowest indices win, ascending on the wire.
  const std::vector<float> values = {1.0f, -1.0f, 1.0f, -1.0f};
  const std::vector<float> out = roundtrip(*codec, values);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], -1.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(TopKCodec, AtLeastOneEntryEvenAtTinyDensity) {
  const auto codec =
      make_codec({.kind = CodecKind::TopK, .topk_density = 0.001});
  // ceil(0.001 * 3) = 1, clamped to at least 1.
  EXPECT_EQ(codec->encoded_bytes(3), 4u + 8u);
  const std::vector<float> values = {0.0f, 7.0f, 0.0f};
  const std::vector<float> out = roundtrip(*codec, values);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
}

TEST(Codecs, DecodeRejectsMalformedPayloads) {
  const std::vector<float> reference;
  std::vector<float> out;
  for (const CodecSpec spec :
       {CodecSpec{.kind = CodecKind::Fp32}, CodecSpec{.kind = CodecKind::Bf16},
        CodecSpec{.kind = CodecKind::Int8},
        CodecSpec{.kind = CodecKind::TopK, .topk_density = 0.5}}) {
    const auto codec = make_codec(spec);
    Encoded wire;
    codec->encode(std::vector<float>{1.0f, 2.0f}, reference, {}, wire);
    Encoded truncated;
    truncated.bytes.assign(wire.bytes.begin(), wire.bytes.end() - 1);
    EXPECT_THROW(codec->decode(truncated, 2, reference, out),
                 std::runtime_error)
        << codec->to_string();
  }
  // TopK additionally validates indices.
  const auto topk = make_codec({.kind = CodecKind::TopK, .topk_density = 0.5});
  Encoded wire;
  topk->encode(std::vector<float>{1.0f, 2.0f}, reference, {}, wire);
  wire.bytes[4] = 9;  // first index -> out of range for count == 2
  EXPECT_THROW(topk->decode(wire, 2, reference, out), std::runtime_error);
}

TEST(Codecs, EmptyTensorsRoundTrip) {
  for (const CodecSpec spec :
       {CodecSpec{.kind = CodecKind::Fp32}, CodecSpec{.kind = CodecKind::Bf16},
        CodecSpec{.kind = CodecKind::Int8},
        CodecSpec{.kind = CodecKind::TopK, .topk_density = 0.5}}) {
    const auto codec = make_codec(spec);
    EXPECT_EQ(codec->encoded_bytes(0),
              spec.kind == CodecKind::Int8  ? 4u
              : spec.kind == CodecKind::TopK ? 4u
                                             : 0u)
        << codec->to_string();
    const std::vector<float> out = roundtrip(*codec, std::vector<float>{});
    EXPECT_TRUE(out.empty()) << codec->to_string();
  }
}

}  // namespace
}  // namespace mach::comm
