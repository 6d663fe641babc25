// Unit tests for the runtime building blocks around the thread pool:
// chunk geometry, the thread-count knob, and the now-atomic obs::Counter
// under concurrent increments.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/registry.h"
#include "runtime/chunking.h"
#include "runtime/parallel_config.h"
#include "runtime/thread_pool.h"

namespace mach::runtime {
namespace {

TEST(Chunking, CoversTheRangeWithoutOverlap) {
  const std::size_t total = 103, chunk = 16;
  const std::size_t chunks = num_chunks(total, chunk);
  EXPECT_EQ(chunks, 7u);
  std::size_t expected_begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const ChunkRange range = chunk_range(c, total, chunk);
    EXPECT_EQ(range.begin, expected_begin);
    EXPECT_LE(range.size(), chunk);
    if (c + 1 < chunks) {
      EXPECT_EQ(range.size(), chunk);
    }
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, total);
}

TEST(Chunking, ExactMultipleAndEdgeCases) {
  EXPECT_EQ(num_chunks(64, 16), 4u);
  EXPECT_EQ(num_chunks(0, 16), 0u);
  EXPECT_EQ(num_chunks(5, 0), 0u);
  EXPECT_EQ(num_chunks(1, 16), 1u);
  const ChunkRange last = chunk_range(3, 64, 16);
  EXPECT_EQ(last.begin, 48u);
  EXPECT_EQ(last.end, 64u);
  // Out-of-range chunk index clamps to an empty range at `total`.
  const ChunkRange past = chunk_range(9, 10, 4);
  EXPECT_EQ(past.begin, 10u);
  EXPECT_EQ(past.size(), 0u);
}

TEST(Chunking, FillIotaReusesTheVector) {
  std::vector<std::size_t> indices{99, 99, 99, 99, 99, 99};
  fill_iota(indices, ChunkRange{7, 10});
  EXPECT_EQ(indices, (std::vector<std::size_t>{7, 8, 9}));
  fill_iota(indices, ChunkRange{4, 4});
  EXPECT_TRUE(indices.empty());
}

TEST(ParallelConfig, ResolveThreads) {
  EXPECT_EQ(resolve_threads(ParallelConfig{1}), 1u);
  EXPECT_EQ(resolve_threads(ParallelConfig{6}), 6u);
  const std::size_t hw = resolve_threads(ParallelConfig{0});
  EXPECT_GE(hw, 1u);  // 0 resolves to hardware_concurrency (>= 1 fallback)
}

TEST(Counter, ConcurrentIncrementsDoNotLoseUpdates) {
  obs::Counter counter;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsThroughThePool) {
  obs::Counter counter;
  ThreadPool pool(4);
  pool.parallel_for(0, 10000, [&](std::size_t, std::size_t) { counter.add(1); });
  EXPECT_EQ(counter.value(), 10000u);
}

}  // namespace
}  // namespace mach::runtime
