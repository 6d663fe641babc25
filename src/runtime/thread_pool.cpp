#include "runtime/thread_pool.h"

#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mach::runtime {

namespace {
/// glibc raises its mmap threshold, process-wide, whenever any thread frees
/// an mmapped block. Once workers run, whether a later large allocation gets
/// its own mapping or lands in a heap arena then depends on which thread
/// freed what first, and the arenas fragment by a timing-dependent amount:
/// on the 4-thread MNIST benchmark peak RSS crept from 53 to 72 MiB over
/// 40 s once training got faster. Pinning the threshold at glibc's default
/// keeps the footprint a function of the work, not of thread timing. Only a
/// pool that spawns a thread pins: a pool of one leaves a single-threaded
/// process on glibc's own policy.
void pin_mmap_threshold() {
#if defined(__GLIBC__)
  static const int pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)pinned;
#endif
}

/// Set for the lifetime of every pool thread, and on a calling thread while
/// it runs its slice 0; parallel_for consults it to reject nested sections
/// from any pool.
thread_local bool tls_inside_worker = false;
}  // namespace

bool ThreadPool::inside_worker() noexcept { return tls_inside_worker; }

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    throw std::invalid_argument("ThreadPool: zero workers (resolve_threads first)");
  }
  if (workers > 1) pin_mmap_threshold();
  threads_.reserve(workers - 1);
  for (std::size_t i = 1; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::worker_loop() {
  tls_inside_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, and nothing left to drain
      task = queue_.front();
      queue_.pop_front();
    }
    run_task(task);
  }
}

void ThreadPool::run_task(const Task& task) {
  std::exception_ptr error;
  try {
    for (std::size_t i = task.begin; i < task.end; ++i) (*fn_)(i, task.slot);
  } catch (...) {
    error = std::current_exception();
  }
  bool section_finished = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !first_error_) first_error_ = error;
    section_finished = --unfinished_ == 0;
  }
  if (section_finished) section_done_.notify_all();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (tls_inside_worker) {
    throw std::logic_error("ThreadPool: nested parallel_for from a worker");
  }
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t slices = std::min(count, num_workers());
  // Even static partition: slice k covers the half-open index range
  // [begin + k*count/slices, begin + (k+1)*count/slices).
  const auto slice = [&](std::size_t k) {
    return Task{begin + k * count / slices, begin + (k + 1) * count / slices, k};
  };
  {
    std::unique_lock<std::mutex> lock(mutex_);
    fn_ = &fn;
    first_error_ = nullptr;
    unfinished_ = slices;
    for (std::size_t k = 1; k < slices; ++k) queue_.push_back(slice(k));
  }
  if (slices > 1) work_available_.notify_all();
  // Slice 0 on the calling thread, flagged as a worker while it runs so a
  // section nested in it is rejected like one from a pool thread.
  tls_inside_worker = true;
  run_task(slice(0));
  tls_inside_worker = false;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    section_done_.wait(lock, [this] { return unfinished_ == 0; });
    error = first_error_;
    first_error_ = nullptr;
    fn_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mach::runtime
