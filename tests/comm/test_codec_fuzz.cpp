// Randomized round-trip fuzzing of every codec against its documented error
// bound. scripts/ci.sh runs this with MACH_CODEC_FUZZ_ITERS raised; the
// default keeps the suite fast for local ctest.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "comm/codec.h"
#include "comm/codec_impl.h"
#include "comm/wire.h"
#include "common/cpu_isa.h"
#include "common/rng.h"
#include "tensor/kernels/gemm_variants.h"

namespace mach::comm {
namespace {

std::size_t fuzz_iters() {
  if (const char* env = std::getenv("MACH_CODEC_FUZZ_ITERS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 50;
}

/// Random tensor mixing scales, signs, exact zeros, and the odd huge value —
/// the shapes model deltas actually take (mostly small, a few spikes).
std::vector<float> random_tensor(common::Rng& rng, std::size_t count) {
  std::vector<float> values(count);
  for (float& v : values) {
    const double pick = rng.uniform();
    if (pick < 0.1) {
      v = 0.0f;
    } else if (pick < 0.2) {
      v = static_cast<float>(rng.normal() * 1e3);
    } else if (pick < 0.3) {
      v = static_cast<float>(rng.normal() * 1e-6);
    } else {
      v = static_cast<float>(rng.normal());
    }
  }
  return values;
}

TEST(CodecFuzz, Fp32IsBitwiseExact) {
  common::Rng rng(0xf32f32);
  const auto codec = make_codec({.kind = CodecKind::Fp32});
  for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
    const std::size_t count = rng.uniform_index(512) + 1;
    const std::vector<float> values = random_tensor(rng, count);
    Encoded wire;
    codec->encode(values, {}, {}, wire);
    ASSERT_EQ(wire.bytes.size(), codec->encoded_bytes(count));
    std::vector<float> out;
    codec->decode(wire, count, {}, out);
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(values[i]))
          << "iter " << iter << " index " << i;
    }
  }
}

TEST(CodecFuzz, Bf16StaysWithinRelativeBoundAndIsIdempotent) {
  common::Rng rng(0xbf16bf16);
  const auto codec = make_codec({.kind = CodecKind::Bf16});
  for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
    const std::size_t count = rng.uniform_index(512) + 1;
    const std::vector<float> values = random_tensor(rng, count);
    Encoded wire;
    codec->encode(values, {}, {}, wire);
    std::vector<float> out;
    codec->decode(wire, count, {}, out);
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      // Documented bound: truncation error < 2^-7 relative for normals;
      // subnormals and zero truncate toward zero within the same magnitude.
      if (std::fabs(values[i]) >= std::numeric_limits<float>::min()) {
        ASSERT_LE(std::fabs(out[i] - values[i]),
                  std::ldexp(std::fabs(values[i]), -7))
            << "iter " << iter << " index " << i << " value " << values[i];
      } else {
        ASSERT_LE(std::fabs(out[i]), std::fabs(values[i]))
            << "iter " << iter << " index " << i;
      }
    }
    // Idempotence: a second pass over the decoded tensor is bitwise exact.
    Encoded wire2;
    codec->encode(out, {}, {}, wire2);
    std::vector<float> out2;
    codec->decode(wire2, count, {}, out2);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out2[i]),
                std::bit_cast<std::uint32_t>(out[i]))
          << "iter " << iter << " index " << i;
    }
  }
}

TEST(CodecFuzz, Int8StaysWithinHalfScale) {
  common::Rng rng(0x1238);
  const auto codec = make_codec({.kind = CodecKind::Int8});
  for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
    const std::size_t count = rng.uniform_index(512) + 1;
    const std::vector<float> values = random_tensor(rng, count);
    float max_abs = 0.0f;
    for (const float v : values) max_abs = std::max(max_abs, std::fabs(v));
    const float scale = max_abs / 127.0f;
    Encoded wire;
    codec->encode(values, {}, {}, wire);
    ASSERT_EQ(wire.bytes.size(), codec->encoded_bytes(count));
    std::vector<float> out;
    codec->decode(wire, count, {}, out);
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      // Documented bound: round-to-nearest symmetric grid, error ≤ scale/2
      // (scale at the clamp boundary); small float slack for the division.
      ASSERT_LE(std::fabs(out[i] - values[i]), scale + scale * 1e-5f)
          << "iter " << iter << " index " << i << " value " << values[i]
          << " scale " << scale;
      ASSERT_LE(std::fabs(out[i]), max_abs * (1.0f + 1e-5f))
          << "iter " << iter << " index " << i;
    }
  }
}

TEST(CodecFuzz, Int8MatchesReference) {
  // The int8 codec and every kernel variant's int8 entries (4, 8 or 16
  // floats wide) against the scalar reference: identical bytes,
  // bit-identical decodes. Lengths cover every tail mod 64 (four 16-wide
  // vectors); the specials cover NaN, ±inf, subnormals, exact ties and
  // scales whose reciprocal overflows.
  const auto variants = tensor::kernels::detail::host_variants();
  common::Rng rng(0x18ef);
  const auto codec = make_codec({.kind = CodecKind::Int8});
  for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
    const std::size_t count = rng.uniform_index(600);
    std::vector<float> values = random_tensor(rng, count);
    if (count > 0) {
      const auto at = [&] { return rng.uniform_index(count); };
      if (rng.uniform() < 0.1) {
        values[at()] = std::numeric_limits<float>::quiet_NaN();
      }
      if (rng.uniform() < 0.05) {
        values[at()] = (rng.uniform() < 0.5 ? 1.0f : -1.0f) *
                       std::numeric_limits<float>::infinity();
      }
      if (rng.uniform() < 0.1) {
        values[at()] = static_cast<float>(rng.uniform(-1.0, 1.0) * 1e-39);
      }
      const double shape = rng.uniform();
      if (shape < 0.15) {
        // Exact ties: scale = 2^e, entries ±(k+½)·2^e.
        const int exponent = static_cast<int>(rng.uniform_index(60)) - 30;
        const float step = std::ldexp(1.0f, exponent);
        for (float& v : values) {
          const float k = static_cast<float>(rng.uniform_index(127));
          v = (rng.uniform() < 0.5 ? 1.0f : -1.0f) * (k + 0.5f) * step;
        }
        values[at()] = 127.0f * step;
      } else if (shape < 0.3) {
        // Down to and across the tiny threshold 127 / FLT_MAX.
        const float factor =
            std::pow(10.0f, static_cast<float>(rng.uniform(-40.0, -34.0)));
        for (float& v : values) v *= factor;
      }
    }
    Encoded got, want;
    detail::int8_encode_reference(values, want);
    std::vector<float> got_out, want_out;
    detail::int8_decode_reference(want, count, want_out);
    const auto check = [&](const char* path) {
      ASSERT_EQ(got.bytes, want.bytes)
          << path << " iter " << iter << " count " << count;
      ASSERT_EQ(got_out.size(), count) << path;
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got_out[i]),
                  std::bit_cast<std::uint32_t>(want_out[i]))
            << path << " iter " << iter << " index " << i;
      }
    };
    codec->encode(values, {}, {}, got);
    codec->decode(got, count, {}, got_out);
    check("codec");
    for (const auto* v : variants) {
      detail::int8_encode(*v, values, got);
      detail::int8_decode(*v, want, count, got_out);
      check(common::gemm_isa_name(v->isa));
    }
  }
}

TEST(CodecFuzz, Int8TinyTensorsKeepZerosAndSigns) {
  // random_tensor never goes below ~1e-6, so tensors whose 1/scale
  // overflows (max|x| < 127 / FLT_MAX ≈ 3.7e-37) need their own draw:
  // max|x| log-uniform over [1e-44, 1e-35].
  common::Rng rng(0x7191);
  const auto codec = make_codec({.kind = CodecKind::Int8});
  for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
    const std::size_t count = rng.uniform_index(300) + 1;
    const float max_abs =
        std::pow(10.0f, static_cast<float>(rng.uniform(-44.0, -35.0)));
    std::vector<float> values(count);
    for (float& v : values) {
      v = rng.uniform() < 0.15
              ? 0.0f
              : static_cast<float>(rng.uniform(-1.0, 1.0)) * max_abs;
    }
    values[rng.uniform_index(count)] = rng.uniform() < 0.5 ? max_abs : -max_abs;
    Encoded wire;
    codec->encode(values, {}, {}, wire);
    std::vector<float> out;
    codec->decode(wire, count, {}, out);
    ASSERT_EQ(out.size(), count);
    // The scale is subnormal for most of this range, so it can round up by
    // a large fraction of itself: |q·scale| may pass max|x| by up to half a
    // grid step, never more.
    const float half_step = 0.5f * (max_abs / 127.0f);
    for (std::size_t i = 0; i < count; ++i) {
      if (values[i] == 0.0f) {
        ASSERT_EQ(out[i], 0.0f) << "iter " << iter << " index " << i;
      }
      ASSERT_FALSE(values[i] > 0.0f && out[i] < 0.0f)
          << "iter " << iter << " index " << i << " value " << values[i];
      ASSERT_FALSE(values[i] < 0.0f && out[i] > 0.0f)
          << "iter " << iter << " index " << i << " value " << values[i];
      ASSERT_LE(std::fabs(out[i]), max_abs + half_step)
          << "iter " << iter << " index " << i << " max " << max_abs;
    }
  }
}

TEST(CodecFuzz, TopKConservesMassThroughErrorFeedback) {
  common::Rng rng(0x70f);
  for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
    const double density = rng.uniform(0.01, 0.6);
    const auto codec =
        make_codec({.kind = CodecKind::TopK, .topk_density = density});
    const std::size_t count = rng.uniform_index(300) + 4;
    const std::vector<float> reference = random_tensor(rng, count);
    std::vector<float> residual(count, 0.0f);
    // Chain several messages so the residual actually accumulates.
    for (int msg = 0; msg < 4; ++msg) {
      const std::vector<float> values = random_tensor(rng, count);
      const std::vector<float> residual_before = residual;
      Encoded wire;
      codec->encode(values, reference, residual, wire);
      ASSERT_EQ(wire.bytes.size(), codec->encoded_bytes(count));
      ASSERT_EQ(residual.size(), count);
      // Invariant (bitwise): every corrected entry is either on the wire
      // exactly with its residual zeroed, or banked exactly in the residual.
      const std::uint32_t k = wire::get_u32(wire.bytes.data());
      std::vector<bool> sent(count, false);
      for (std::uint32_t j = 0; j < k; ++j) {
        const std::uint32_t idx =
            wire::get_u32(wire.bytes.data() + 4 + 4 * j);
        const float payload =
            wire::get_f32(wire.bytes.data() + 4 + 4 * k + 4 * j);
        ASSERT_LT(idx, count);
        sent[idx] = true;
        const float corrected =
            (values[idx] - reference[idx]) + residual_before[idx];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(payload),
                  std::bit_cast<std::uint32_t>(corrected))
            << "iter " << iter << " msg " << msg << " index " << idx;
        ASSERT_EQ(residual[idx], 0.0f)
            << "iter " << iter << " msg " << msg << " index " << idx;
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (sent[i]) continue;
        const float corrected =
            (values[i] - reference[i]) + residual_before[i];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(residual[i]),
                  std::bit_cast<std::uint32_t>(corrected))
            << "iter " << iter << " msg " << msg << " index " << i;
      }
      // Untransmitted coordinates decode to the reference exactly.
      std::vector<float> out;
      codec->decode(wire, count, reference, out);
      ASSERT_EQ(out.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        if (!sent[i]) {
          ASSERT_EQ(out[i], reference[i])
              << "iter " << iter << " msg " << msg << " index " << i;
        }
      }
    }
  }
}

TEST(CodecFuzz, WireSizeNeverDependsOnValues) {
  common::Rng rng(0x517e);
  for (const CodecSpec spec :
       {CodecSpec{.kind = CodecKind::Fp32}, CodecSpec{.kind = CodecKind::Bf16},
        CodecSpec{.kind = CodecKind::Int8},
        CodecSpec{.kind = CodecKind::TopK, .topk_density = 0.13}}) {
    const auto codec = make_codec(spec);
    for (std::size_t iter = 0; iter < fuzz_iters(); ++iter) {
      const std::size_t count = rng.uniform_index(256) + 1;
      Encoded wire;
      codec->encode(random_tensor(rng, count), {}, {}, wire);
      // encoded_bytes() is the contract the byte ledger charges by — the
      // actual payload must match it for every value pattern, including the
      // all-zero tensor.
      ASSERT_EQ(wire.bytes.size(), codec->encoded_bytes(count))
          << codec->to_string() << " count " << count;
      codec->encode(std::vector<float>(count, 0.0f), {}, {}, wire);
      ASSERT_EQ(wire.bytes.size(), codec->encoded_bytes(count))
          << codec->to_string() << " count " << count << " (zeros)";
    }
  }
}

}  // namespace
}  // namespace mach::comm
