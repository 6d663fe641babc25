// Shared layout of the run-state snapshot's leading section.
//
// The HFL engine owns the full payload encoding (it knows every member it
// must freeze), but the header below is deliberately factored out and
// placed first in the payload: the engine decodes it when it reads a
// snapshot at construction and exposes it (HflSimulator::resume_header),
// so a CLI learns which step the run continues from and where to truncate
// its JSONL trace before any step runs. The fingerprint pins the snapshot
// to the run that produced it; everything that changes the deterministic
// event sequence feeds the hash (the data world and the mobility rows the
// run reaches included), and thread count deliberately does not (runs are
// bitwise identical at any `--threads`, so resuming at a different worker
// count is legal and tested).
#pragma once

#include <cstdint>
#include <string_view>

#include "ckpt/bytes.h"

namespace mach::ckpt {

/// Payload format version CheckpointManager writes and reads (bump on layout
/// changes, or when an old snapshot can no longer match). v2:
/// CommunicationCost gained the encoded-byte ledger + mixed-size flag, and
/// lossy-codec runs append error-feedback residuals and the last cloud
/// broadcast (src/comm/). v3: the communication section is the Transport's
/// (hfl/transport.h): the ledger, then the codec state; the legacy message
/// counters, model size and mixed-size flag are gone. v4: same layout, but
/// the fingerprint also covers the data world, so no v3 fingerprint
/// matches. CheckpointManager::load_latest skips a snapshot of another
/// version like a torn one.
inline constexpr std::uint32_t kRunStateVersion = 4;

struct RunStateHeader {
  std::uint64_t fingerprint = 0;      // run-configuration hash (see above)
  std::uint64_t next_t = 0;           // first time step still to execute
  std::uint64_t total_steps = 0;      // the run's requested horizon
  std::uint64_t cloud_rounds = 0;     // completed cloud rounds
  double window_train_loss = 0.0;     // eval-window accumulators
  std::uint64_t window_participants = 0;
  bool has_trace_cursor = false;      // trace offsets valid (run was traced)
  std::uint64_t trace_bytes = 0;      // truncate the JSONL trace to this size
  std::uint64_t trace_lines = 0;      // lines written up to the snapshot

  void encode(ByteWriter& out) const;
  /// Throws CorruptPayload on a malformed or foreign header.
  static RunStateHeader decode(ByteReader& in);
};

/// FNV-1a-style 64-bit hash chain for building run fingerprints.
std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) noexcept;
std::uint64_t hash_f64(std::uint64_t h, double v) noexcept;
std::uint64_t hash_str(std::uint64_t h, std::string_view s) noexcept;
inline constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ULL;

}  // namespace mach::ckpt
