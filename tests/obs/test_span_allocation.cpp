// Span-profiler hot-path allocation test, riding in the test_allocation
// binary (tests/nn/test_allocation.cpp replaces the global allocation
// functions with counting wrappers there): recording a span on a bound
// thread must not allocate — the rings are pre-sized at construction — a
// plain guard on an unbound thread must be a complete no-op, and a
// phase-tagged guard must charge its phase without allocating, bound or not.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/span_profiler.h"

// The counting wrapper's counter (defined in tests/nn/test_allocation.cpp).
extern std::atomic<std::uint64_t> g_alloc_count;

namespace mach::obs {
namespace {

TEST(SpanAllocation, BoundGuardRecordsWithoutAllocating) {
  SpanProfiler profiler(2, 64);  // rings fully allocated here
  SpanProfiler::ThreadScope scope(&profiler, 1);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < 200; ++i) {
    SpanGuard outer("device_train", i, i % 8);
    SpanGuard inner("local_sgd", i, i % 8);
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "span recording must stay allocation-free (incl. ring overflow)";

  EXPECT_EQ(profiler.spans_dropped(), 2 * 200 - 64);
}

TEST(SpanAllocation, UnboundGuardIsFree) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < 100; ++i) {
    SpanGuard guard("orphan", i);
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(SpanAllocation, MergeAtBarrierMayAllocateButRecordingStaysClean) {
  SpanProfiler profiler(1, 32);
  // Reserve the master list by merging once with a full ring: subsequent
  // record+merge cycles of the same volume then stay allocation-free too.
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    for (std::int64_t i = 0; i < 32; ++i) SpanGuard guard("warm", i);
  }
  profiler.merge_thread_rings();
  profiler.drain();  // moves the merged list out; capacity must be regrown

  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (std::int64_t i = 0; i < 32; ++i) SpanGuard guard("steady", i);
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
  }
}

TEST(SpanAllocation, PhaseTaggedGuardChargesWithoutAllocating) {
  SpanProfiler profiler(1, 128);  // holds every bound guard's span
  PhaseTimerSet timers;
  PhaseAccumulator& unbound = timers[Phase::DeviceTraining];
  PhaseAccumulator& bound = timers[Phase::EdgeAggregation];

  std::array<std::uint64_t, 100> open_counts{};  // count while guard i is open
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::int64_t i = 0; i < 100; ++i) {
    SpanGuard guard(unbound, "device_train", i, i % 8);
    open_counts[static_cast<std::size_t>(i)] = unbound.count;
  }
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    for (std::int64_t i = 0; i < 100; ++i) {
      SpanGuard guard(bound, "edge_reduce", i, i % 8);
    }
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "phase-tagged guards must stay allocation-free";

  // A guard charges when it closes, not before.
  for (std::size_t i = 0; i < open_counts.size(); ++i) {
    EXPECT_EQ(open_counts[i], i);
  }
  EXPECT_EQ(unbound.count, 100u);
  EXPECT_EQ(bound.count, 100u);
  // Only the bound guards recorded spans, each lasting exactly what its
  // guard charged: summed in completion order they reproduce the total.
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 100u);
  double span_seconds = 0.0;
  for (const Span& span : spans) {
    EXPECT_STREQ(span.name, "edge_reduce");
    span_seconds += span.duration_seconds();
  }
  EXPECT_EQ(span_seconds, bound.total_seconds);
}

}  // namespace
}  // namespace mach::obs
