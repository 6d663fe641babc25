// Deterministic fixed-size thread pool for the simulator's fan-out phases.
//
// Design constraints (why this is not a generic executor):
//   * Fixed worker count, no work stealing. parallel_for() statically
//     partitions the index range into at most num_workers() contiguous
//     slices; slice k carries the slot id k. The calling thread runs slice 0
//     and the pool's num_workers() - 1 threads the others, so a pool of one
//     spawns no thread and runs its sections inline. Which OS thread runs a
//     slice k > 0 is scheduler-dependent, but the index→slot mapping is a
//     pure function of (range, worker count) — so any per-slot state (e.g.
//     the simulator's per-slot model) is touched by exactly one slice per
//     section and results can be reduced in index order, independent of
//     timing.
//   * The caller blocks until the section completes; sections never overlap,
//     so one task queue and one in-flight callable suffice.
//   * Nested sections are rejected: calling parallel_for() from inside a
//     slice (the caller's own slice 0 included) throws std::logic_error
//     instead of deadlocking.
//   * The first exception a slice throws is captured and rethrown on the
//     calling thread after every slice has finished (remaining slices still
//     run; the section always joins).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mach::runtime {

class ThreadPool {
 public:
  /// A pool of `workers` (>= 1) slots: spawns `workers - 1` persistent
  /// threads, the caller of parallel_for() being the first worker. Throws
  /// std::invalid_argument on zero (resolve the 0 = hardware_concurrency
  /// convention with resolve_threads() first).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const noexcept { return threads_.size() + 1; }

  /// Invoked as fn(index, slot): `index` walks [begin, end), `slot` is the
  /// id of the contiguous slice the index belongs to (0 <= slot <
  /// num_workers()); slot 0's indices run on the calling thread. Blocks
  /// until every index has run; rethrows the first exception thrown by fn.
  /// Throws std::logic_error when called from inside a slice (nested
  /// sections are not supported).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t index, std::size_t slot)>& fn);

  /// True while the calling thread runs a slice of *any* ThreadPool: a pool
  /// thread, or a caller inside its own slice 0.
  static bool inside_worker() noexcept;

 private:
  struct Task {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t slot = 0;
  };

  void worker_loop();
  void run_task(const Task& task);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable section_done_;
  std::deque<Task> queue_;
  const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;
  std::size_t unfinished_ = 0;       // slices still queued or running
  std::exception_ptr first_error_;   // first exception of the active section
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace mach::runtime
