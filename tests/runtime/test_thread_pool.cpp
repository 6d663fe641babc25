// ThreadPool contract tests: static partitioning, slice 0 on the calling
// thread, exception propagation, nested-section rejection and clean shutdown.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mach::runtime {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, HonoursRangeOffset) {
  ThreadPool pool(3);
  std::vector<int> marks(20, 0);
  pool.parallel_for(5, 17, [&](std::size_t i, std::size_t) { marks[i] = 1; });
  for (std::size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i], (i >= 5 && i < 17) ? 1 : 0) << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(3, 3, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SlotAssignmentIsAStaticPartition) {
  // The index→slot mapping must be a pure function of (range, workers):
  // contiguous, non-decreasing, identical across repeated sections. This is
  // the property the simulator's per-slot models rely on.
  ThreadPool pool(3);
  const std::size_t n = 17;
  std::vector<std::size_t> first(n), second(n);
  pool.parallel_for(0, n, [&](std::size_t i, std::size_t s) { first[i] = s; });
  pool.parallel_for(0, n, [&](std::size_t i, std::size_t s) { second[i] = s; });
  EXPECT_EQ(first, second);
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(first[i - 1], first[i]);
  EXPECT_EQ(first.front(), 0u);
  EXPECT_LT(first.back(), pool.num_workers());
}

TEST(ThreadPool, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::vector<std::size_t> slots(3, 99);
  pool.parallel_for(0, 3, [&](std::size_t i, std::size_t s) { slots[i] = s; });
  // At most one index per slice when items < workers.
  EXPECT_EQ(slots, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [&](std::size_t i, std::size_t) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // A throw in slice 0, which runs on the calling thread: the other slice
  // still runs to its end before the section rethrows.
  std::atomic<int> other_slice{0};
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [&](std::size_t i, std::size_t slot) {
                                   if (i == 0) throw std::runtime_error("caller");
                                   if (slot != 0) other_slice.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(other_slice.load(), 5);
  EXPECT_FALSE(ThreadPool::inside_worker());
  // The pool must stay usable after a throwing section.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t i, std::size_t) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, RejectsNestedSections) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 2,
                                 [&](std::size_t, std::size_t) {
                                   pool.parallel_for(
                                       0, 1, [](std::size_t, std::size_t) {});
                                 }),
               std::logic_error);
}

TEST(ThreadPool, RejectsNestedSectionsAcrossPools) {
  // inside_worker() is process-global: a worker of pool A must not block on
  // pool B either (B's workers could be blocked on A in the general case).
  ThreadPool outer(2);
  ThreadPool inner(2);
  EXPECT_THROW(outer.parallel_for(0, 2,
                                  [&](std::size_t, std::size_t) {
                                    inner.parallel_for(
                                        0, 1, [](std::size_t, std::size_t) {});
                                  }),
               std::logic_error);
}

TEST(ThreadPool, InsideWorkerIsFalseOnTheCallingThread) {
  EXPECT_FALSE(ThreadPool::inside_worker());
  ThreadPool pool(1);
  bool inside = false;
  pool.parallel_for(0, 1,
                    [&](std::size_t, std::size_t) { inside = ThreadPool::inside_worker(); });
  EXPECT_TRUE(inside);
  EXPECT_FALSE(ThreadPool::inside_worker());
}

TEST(ThreadPool, SliceZeroRunsOnTheCallingThread) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> slots(12);
  std::vector<std::thread::id> threads(12);
  pool.parallel_for(0, 12, [&](std::size_t i, std::size_t slot) {
    slots[i] = slot;
    threads[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    SCOPED_TRACE(i);
    if (slots[i] == 0) {
      EXPECT_EQ(threads[i], caller);
    } else {
      EXPECT_NE(threads[i], caller);
    }
  }
  EXPECT_EQ(slots.front(), 0u);
  EXPECT_EQ(slots.back(), 2u);
}

TEST(ThreadPool, OneWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> threads(5);
  std::vector<int> inside(5, 0);
  pool.parallel_for(0, 5, [&](std::size_t i, std::size_t slot) {
    EXPECT_EQ(slot, 0u);
    threads[i] = std::this_thread::get_id();
    inside[i] = ThreadPool::inside_worker() ? 1 : 0;
  });
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i], caller) << i;
    EXPECT_EQ(inside[i], 1) << i;
  }
  EXPECT_FALSE(ThreadPool::inside_worker());
}

TEST(ThreadPool, ShutdownWithoutWorkIsClean) {
  for (int i = 0; i < 16; ++i) {
    ThreadPool pool(3);  // construct + immediately destroy
  }
}

TEST(ThreadPool, ShutdownAfterSectionsIsClean) {
  for (int i = 0; i < 8; ++i) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(0, 32, [&](std::size_t, std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(ThreadPool, ManyBackToBackSections) {
  ThreadPool pool(4);
  std::vector<long> slots(64, 0);
  long expected = 0;
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(0, slots.size(),
                      [&](std::size_t i, std::size_t) { slots[i] += round; });
    expected += round;
  }
  for (const long v : slots) EXPECT_EQ(v, expected);
}

}  // namespace
}  // namespace mach::runtime
