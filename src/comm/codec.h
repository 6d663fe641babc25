// Pluggable transfer codecs for model messages on the hierarchical network.
//
// The paper frames device sampling as minimising convergence error under
// per-edge channel budgets (Eq. 3–4); what actually crosses those channels is
// a model per message. A Codec defines how a flat float32 parameter vector is
// serialised onto the wire and reconstructed on the other side, so the
// simulator can (a) charge the ByteLedger the *encoded* size instead of
// assuming 4 bytes per parameter, and (b) feed the receiver the *decoded*
// (lossy) tensor so accuracy-vs-bytes tradeoffs are real, not estimated.
//
// Four implementations:
//   * fp32 — identity serialisation. Lossless and bit-exact: a run whose
//     links are all fp32 is bitwise identical to a run without the comm
//     layer.
//   * bf16 — truncation to bfloat16 (keep sign, exponent and the top 7
//     mantissa bits; the classic bitfield-union idiom, done with bit_cast).
//     Relative error ≤ 2^-7 for normal values; 2 bytes/parameter.
//   * int8 — per-tensor symmetric quantisation: scale = max|x| / 127,
//     q = x · (1/scale) rounded half away from zero, clamped to [-127, 127]
//     (x / scale when 1/scale overflows; NaN encodes as -127). The product
//     can differ from x / scale in the last bit, and so round differently.
//     Absolute error ≤ scale/2; 4 + 1·count bytes.
//   * topk — sparsified *delta* transfer with error-feedback residuals:
//     encodes the k = ceil(density·count) largest-magnitude entries of
//     (value − reference) + residual, banks what it did not send back into
//     the residual, and the receiver applies the sparse delta on top of the
//     shared reference. 4 + 8·k bytes. With a null residual the codec is
//     memoryless (plain top-k); with an empty reference it sparsifies the
//     raw values (magnitude compression — the download/broadcast semantic).
//
// Codec objects are immutable and shareable; all mutable state (the
// error-feedback residual) is caller-owned, which is what lets the engine
// checkpoint it per device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mach::comm {

enum class CodecKind : std::uint8_t { Fp32, Bf16, Int8, TopK };

/// Parsed codec selector: a kind plus its parameters. Spec grammar:
///   "fp32" | "bf16" | "int8" | "topk" | "topk:k=<density in (0,1]>"
struct CodecSpec {
  CodecKind kind = CodecKind::Fp32;
  /// TopK only: fraction of entries transmitted per message.
  double topk_density = 0.01;

  /// Parses one codec spec clause; throws std::invalid_argument with the
  /// offending text on errors.
  static CodecSpec parse(std::string_view text);
  /// Canonical spec string (parse(to_string()) round-trips).
  std::string to_string() const;

  friend bool operator==(const CodecSpec&, const CodecSpec&) = default;
};

/// One encoded message payload (reused across calls to avoid allocation).
struct Encoded {
  std::vector<std::uint8_t> bytes;
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecKind kind() const noexcept = 0;
  /// Canonical spec string of this instance (e.g. "topk:k=0.05").
  virtual std::string to_string() const = 0;
  /// decode(encode(x)) == x bitwise for every finite x.
  virtual bool lossless() const noexcept { return false; }
  /// Encodes a delta against a shared reference tensor (TopK); the engine
  /// must hand both endpoints the same reference.
  virtual bool is_delta() const noexcept { return false; }
  /// Carries per-sender error-feedback state between messages (TopK); the
  /// engine owns, threads through, and checkpoints the residual vector.
  virtual bool stateful() const noexcept { return false; }

  /// Exact wire size in bytes of one encoded message of `count` parameters.
  /// Size-deterministic: depends only on `count`, never on the values (this
  /// is what lets the ledger charge lost/retried messages it never encoded).
  virtual std::size_t encoded_bytes(std::size_t count) const noexcept = 0;

  /// Serialises `values` into `out.bytes` (cleared first; exactly
  /// encoded_bytes(values.size()) bytes afterwards).
  ///   * `reference`: shared reference tensor for delta codecs — empty means
  ///     all-zeros (non-delta codecs ignore it entirely).
  ///   * `residual`: error-feedback state for stateful codecs — a caller-
  ///     owned span of exactly values.size() floats (zero-filled before the
  ///     first use), updated in place. Caller ownership is what lets the
  ///     engine pack per-device residuals into one contiguous pooled slab
  ///     (hfl::ResidualPool) instead of a vector per device. Stateless
  ///     codecs ignore it; pass an empty span for memoryless encoding.
  virtual void encode(std::span<const float> values,
                      std::span<const float> reference,
                      std::span<float> residual, Encoded& out) const = 0;

  /// Reconstructs `count` parameters from a payload into `out` (resized).
  /// `reference` must match the encoder's. Throws std::runtime_error on a
  /// malformed payload.
  virtual void decode(const Encoded& in, std::size_t count,
                      std::span<const float> reference,
                      std::vector<float>& out) const = 0;
};

/// Builds the codec for a spec; throws std::invalid_argument on out-of-range
/// parameters (e.g. topk density outside (0, 1]).
std::unique_ptr<Codec> make_codec(const CodecSpec& spec);

/// Human-readable kind name ("fp32", "bf16", "int8", "topk").
std::string_view codec_kind_name(CodecKind kind) noexcept;

}  // namespace mach::comm
