// Checkpoint/resume knobs threaded from the CLIs into the HFL engine.
#pragma once

#include <cstddef>
#include <string>

namespace mach::ckpt {

struct CheckpointOptions {
  /// Snapshot directory; required whenever `every` > 0 or `resume` is set.
  std::string dir;
  /// Snapshot after every N completed time steps (0 = checkpointing off).
  std::size_t every = 0;
  /// Snapshots retained per run (older ones are garbage-collected).
  std::size_t keep = 2;
  /// Continue from the newest usable snapshot in `dir` instead of starting
  /// over: the engine reads it at construction, skipping torn files and
  /// snapshots of another payload version (CheckpointManager::load_latest).
  /// With no usable snapshot the run starts from step 0 (logged).
  bool resume = false;
  /// Test/CI harness: hard-kill the process (SIGKILL — no destructors, no
  /// flushes) immediately after the snapshot for this step is durable.
  /// Simulates preemption at a deterministic point; 0 = off.
  std::size_t kill_at = 0;

  bool enabled() const noexcept { return every > 0 || resume; }
};

}  // namespace mach::ckpt
