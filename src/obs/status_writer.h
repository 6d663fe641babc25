// Live-run heartbeat: a small status.json rewritten periodically via
// write-temp-then-rename, so an external watcher (tail loop, dashboard,
// orchestrator) always reads a complete, internally-consistent document —
// never a torn partial write. Schema is documented in DESIGN.md §12.
//
// Every document carries the writing process's `pid` and a monotonic-clock
// `uptime_ms` (milliseconds since the writer's construction): a supervisor
// can tell "this heartbeat stopped advancing" (hang) apart from "the wall
// clock jumped" (skew) by watching the monotonic fields, and can tell a
// fresh attempt's heartbeat apart from a dead predecessor's leftover file by
// the pid. See obs/heartbeat.h for the matching reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mach::obs {

/// What the engine knows about the run right now. The writer adds the
/// timing fields (elapsed_seconds, devices_per_second, eta_seconds) from its
/// own monotonic clock, so the engine hands over counts only.
struct StatusSnapshot {
  std::string sampler;
  std::size_t step = 0;            // current simulation step (0-based, done)
  std::size_t start_step = 0;      // steps already done when this process began
  std::size_t total_steps = 0;
  std::size_t cloud_rounds = 0;
  std::uint64_t devices_trained = 0;
  std::uint64_t faults_lost = 0;   // devices lost to injected faults
  std::uint64_t spans_dropped = 0; // profiler ring overflow (0 = complete)
  long current_rss_kb = 0;
  long peak_rss_kb = 0;
  bool finished = false;
};

/// Rate-limited writer. maybe_write() is a no-op (one clock read) inside the
/// interval unless the snapshot is final; every actual write goes to
/// `<path>.tmp` and is renamed over `<path>` atomically.
class StatusWriter {
 public:
  StatusWriter(std::string path, double interval_seconds);

  /// Writes when the interval elapsed or `snapshot.finished` is set.
  /// Returns true when a write happened.
  bool maybe_write(const StatusSnapshot& snapshot);

  /// Writes unconditionally. Returns false on I/O failure.
  bool write_now(const StatusSnapshot& snapshot);

  /// Re-writes the last snapshot handed to maybe_write/write_now with
  /// `"aborted": true`, so watchers see a terminal document even when the
  /// run died before its finished-forces-write path. No-op (returning
  /// false) when nothing was ever written or the last write was already
  /// final. Called by AbortScope; exposed for tests.
  bool write_aborted();

  /// RAII companion for the abnormal-exit path: destruction force-writes
  /// the writer's last snapshot with aborted=true unless that snapshot was
  /// final. Placed on the stack inside the run loop's scope — an exception
  /// unwinding out of the engine still leaves a terminal heartbeat, with no
  /// atexit hook involved (plain scope unwind). A null writer is allowed
  /// (guard is inert), so callers need no conditional.
  class AbortScope {
   public:
    explicit AbortScope(StatusWriter* writer) noexcept : writer_(writer) {}
    AbortScope(const AbortScope&) = delete;
    AbortScope& operator=(const AbortScope&) = delete;
    ~AbortScope() {
      if (writer_ != nullptr) writer_->write_aborted();
    }

   private:
    StatusWriter* writer_;
  };

  std::uint64_t writes() const noexcept { return sequence_; }
  const std::string& path() const noexcept { return path_; }

 private:
  bool write_document(const StatusSnapshot& snapshot, bool aborted);

  std::string path_;
  std::string tmp_path_;
  double interval_seconds_;
  double last_write_seconds_ = -1.0;
  double start_seconds_;           // monotonic birth time (uptime_ms origin)
  long pid_;
  std::uint64_t sequence_ = 0;
  StatusSnapshot last_snapshot_;   // replayed by write_aborted()
  bool have_snapshot_ = false;
};

}  // namespace mach::obs
