// Append-only, crash-safe sweep journal — the orchestrator's source of
// truth for "which configs already ran, and how did each attempt end".
//
// On disk: an 8-byte magic header ("MACHSWJ\x01") followed by CRC-framed
// records, each `u32 payload_len | u32 crc32(payload) | payload`, payload
// being a ckpt::ByteWriter blob. Every append is a single write(2) followed
// by fsync, so a record is either fully durable or part of a torn tail; on
// open, replay stops at the first frame that is short, CRC-corrupt or
// undecodable, and the valid prefix is rewritten through
// ckpt::write_durable_file (temp + fsync + rename, the writer of checkpoint
// files) so the next append lands on a clean end-of-file.
//
// Replay folds records into one PointState per config fingerprint. Records
// also carry the full canonical config string, so a restarted sweep can
// detect the (astronomically unlikely, but silent-corruption-grade) case of
// two different configs sharing a fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mach::sweep {

enum class RecordKind : std::uint8_t {
  AttemptFailed = 1,  // one attempt ended without completing the run
  Done = 2,           // the config ran to completion (exactly once, forever)
  Quarantined = 3,    // gave up after max_attempts failures
};

/// One journal record. Attempt fields are meaningful for AttemptFailed and
/// are written as zeros for Done/Quarantined.
struct JournalRecord {
  RecordKind kind = RecordKind::AttemptFailed;
  std::string fingerprint;
  std::string canonical;
  std::uint32_t attempt = 0;    // 1-based attempt number that failed
  std::int32_t exit_code = -1;  // -1 when the attempt died from a signal
  std::int32_t term_signal = 0; // 0 when the attempt exited normally
  std::string reason;           // human-readable classification
};

struct FailureEvent {
  std::uint32_t attempt = 0;
  std::int32_t exit_code = -1;
  std::int32_t term_signal = 0;
  std::string reason;
};

/// Folded per-config state after replay.
struct PointState {
  std::string canonical;
  bool done = false;
  bool quarantined = false;
  std::vector<FailureEvent> failures;
};

class SweepJournal {
 public:
  /// Opens (creating if absent) the journal at `path`, replays it, repairs
  /// a torn tail if one is found, and leaves the file open for appends.
  /// Throws std::runtime_error for I/O failures or a foreign/bad-magic file.
  explicit SweepJournal(std::string path);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Appends one record and fsyncs. The in-memory state folds it in too.
  void append(const JournalRecord& record);

  const std::map<std::string, PointState>& states() const noexcept {
    return states_;
  }
  const std::vector<JournalRecord>& records() const noexcept {
    return records_;
  }
  /// Bytes dropped from a torn tail during open (0 for a clean file).
  std::size_t repaired_bytes() const noexcept { return repaired_bytes_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void fold(const JournalRecord& record);

  std::string path_;
  int fd_ = -1;
  std::size_t repaired_bytes_ = 0;
  std::vector<JournalRecord> records_;
  std::map<std::string, PointState> states_;
};

}  // namespace mach::sweep
