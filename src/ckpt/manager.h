// Checkpoint directory management: numbered snapshots, keep-last-K garbage
// collection, and fallback loading.
//
// Snapshots are named `ckpt_<step, zero-padded>.mach` so lexicographic
// order equals step order. save() writes atomically (see file.h) under the
// run-state payload version (ckpt::kRunStateVersion) and then deletes all
// but the newest K snapshots; load_latest() walks newest to oldest,
// returning the first snapshot that validates (magic, length, CRC) and
// carries that version, and logging a warning for every file it skips — a
// torn latest checkpoint after SIGKILL degrades to "resume one interval
// earlier", and a snapshot of another layout to "resume from an older one,
// or start over", never to a crash.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mach::ckpt {

struct LoadedCheckpoint {
  std::uint64_t step = 0;      // next_t recorded in the filename
  std::vector<std::uint8_t> payload;
};

class CheckpointManager {
 public:
  /// Creates `dir` (and parents) if missing. `keep` >= 1 snapshots are
  /// retained after every save.
  explicit CheckpointManager(std::string dir, std::size_t keep = 2);

  /// Writes the snapshot for `step` (version kRunStateVersion) and
  /// garbage-collects older files beyond the keep budget. Returns the
  /// written path.
  std::string save(std::uint64_t step,
                   std::span<const std::uint8_t> payload) const;

  /// Newest snapshot that passes validation and carries kRunStateVersion,
  /// or nullopt when none does.
  std::optional<LoadedCheckpoint> load_latest() const;

  /// Snapshot paths sorted by ascending step.
  std::vector<std::string> list() const;

 private:
  std::string dir_;
  std::size_t keep_;
};

}  // namespace mach::ckpt
