// Degree-of-parallelism knob for the runtime subsystem.
//
// The simulator's device-training and evaluation fan-out runs on one pool of
// `threads` workers, each with its own model: `threads == 1` is a pool of
// one, the calling thread, `threads >= 2` adds that many minus one pool
// threads, and `threads == 0` asks for one worker per hardware thread.
// Whatever the value, results are bitwise identical (see thread_pool.h for
// the determinism contract) — the knob trades wall-clock only.
#pragma once

#include <cstddef>
#include <thread>

namespace mach::runtime {

struct ParallelConfig {
  /// Worker count: 1 = the calling thread alone (default), 0 =
  /// hardware_concurrency.
  std::size_t threads = 1;
};

/// Effective worker count for a config (resolves 0 to the hardware thread
/// count, falling back to 1 when the runtime cannot report it).
inline std::size_t resolve_threads(const ParallelConfig& config) noexcept {
  if (config.threads != 0) return config.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace mach::runtime
