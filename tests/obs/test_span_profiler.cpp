// SpanProfiler unit suite: ring-buffer overflow semantics, thread-binding
// scopes, deterministic merge order, the Chrome trace-event export
// round-tripped through the in-tree JSON parser, and the phase clock (phase
// accumulators and the phase-tagged SpanGuard that charges them).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/resource.h"
#include "obs/span_profiler.h"

namespace mach::obs {
namespace {

void record_span(const char* name, std::int64_t t = -1, std::int64_t id = -1) {
  SpanGuard guard(name, t, id);
}

TEST(SpanProfiler, UnboundThreadRecordsNothing) {
  SpanProfiler profiler(1, 16);
  // No ThreadScope: the guard must be a complete no-op.
  record_span("orphan", 3, 7);
  EXPECT_TRUE(profiler.drain().empty());
  EXPECT_EQ(profiler.spans_dropped(), 0u);
}

TEST(SpanProfiler, RecordsNameStepAndIdThroughTheBinding) {
  SpanProfiler profiler(1, 16);
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    record_span("waterfill", 5, 2);
  }
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "waterfill");
  EXPECT_EQ(spans[0].t, 5);
  EXPECT_EQ(spans[0].id, 2);
  EXPECT_EQ(spans[0].track, 0u);
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

TEST(SpanProfiler, NestedGuardsTrackDepth) {
  SpanProfiler profiler(1, 16);
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    SpanGuard outer("round", 0);
    {
      SpanGuard middle("edge_round", 0, 1);
      record_span("device_train", 0, 4);
    }
  }
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by start_ns: outer opened first, innermost completes first but
  // starts last.
  EXPECT_STREQ(spans[0].name, "round");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_STREQ(spans[1].name, "edge_round");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "device_train");
  EXPECT_EQ(spans[2].depth, 2u);
}

TEST(SpanProfiler, ThreadScopeRestoresThePreviousBinding) {
  SpanProfiler outer_profiler(1, 16);
  SpanProfiler inner_profiler(1, 16);
  {
    SpanProfiler::ThreadScope outer(&outer_profiler, 0);
    {
      SpanProfiler::ThreadScope inner(&inner_profiler, 0);
      record_span("inner");
    }
    record_span("outer");
  }
  record_span("unbound");

  const auto inner_spans = inner_profiler.drain();
  ASSERT_EQ(inner_spans.size(), 1u);
  EXPECT_STREQ(inner_spans[0].name, "inner");
  const auto outer_spans = outer_profiler.drain();
  ASSERT_EQ(outer_spans.size(), 1u);
  EXPECT_STREQ(outer_spans[0].name, "outer");
}

TEST(SpanProfiler, RingOverflowDropsOldestAndCountsIt) {
  SpanProfiler profiler(1, 4);
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    for (std::int64_t i = 0; i < 7; ++i) record_span("span", i);
  }
  EXPECT_EQ(profiler.spans_dropped(), 3u);
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 4u);
  // Drop-oldest: the survivors are the newest four, in completion order.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].t, static_cast<std::int64_t>(i + 3));
  }
  // The dropped counter survives the drain (it feeds otherData later).
  EXPECT_EQ(profiler.spans_dropped(), 3u);
}

TEST(SpanProfiler, DrainedSpansComeBackSortedAcrossTracks) {
  SpanProfiler profiler(3, 16);
  // One thread plays every track in sequence; interleave completion so the
  // per-track rings are each locally ordered but globally shuffled.
  for (std::int64_t round = 0; round < 3; ++round) {
    for (std::uint32_t track = 0; track < 3; ++track) {
      SpanProfiler::ThreadScope scope(&profiler, track);
      record_span("work", round, track);
    }
  }
  profiler.merge_thread_rings();
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 9u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
  EXPECT_EQ(profiler.spans_dropped(), 0u);
  // A second drain yields nothing: the master list was moved out.
  EXPECT_TRUE(profiler.drain().empty());
}

TEST(SpanProfiler, WorkerThreadsRecordIntoTheirOwnTracks) {
  SpanProfiler profiler(3, 16);
  std::vector<std::thread> workers;
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    workers.emplace_back([&profiler, slot] {
      SpanProfiler::ThreadScope scope(&profiler, slot + 1);
      record_span("device_train", 0, static_cast<std::int64_t>(slot));
    });
  }
  for (auto& worker : workers) worker.join();
  // Joined workers == barrier: merging here mirrors the simulator.
  profiler.merge_thread_rings();
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::uint32_t, std::int64_t> by_track;
  for (const Span& span : spans) by_track[span.track] = span.id;
  EXPECT_EQ(by_track.size(), 2u);
  EXPECT_EQ(by_track[1], 0);
  EXPECT_EQ(by_track[2], 1);
}

TEST(SpanProfiler, ChromeTraceRoundTripsThroughTheJsonParser) {
  SpanProfiler profiler(2, 4);
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    record_span("round", 0);
    record_span("edge_round", 0, 1);
  }
  {
    SpanProfiler::ThreadScope scope(&profiler, 1);
    for (std::int64_t i = 0; i < 6; ++i) record_span("device_train", 0, i);
  }
  ResourceSampler resources(/*interval_seconds=*/0.0);
  resources.force_sample();

  const std::string path = ::testing::TempDir() + "span_profile_roundtrip.json";
  ASSERT_TRUE(profiler.write_chrome_trace(path, &resources));

  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  std::string error;
  const auto parsed = parse_json(body, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue& doc = *parsed;

  EXPECT_EQ(doc.string_or("displayTimeUnit", ""), "ms");
  EXPECT_EQ(doc["otherData"].number_or("spans_dropped", -1), 2.0);
  EXPECT_EQ(doc["otherData"].number_or("tracks", 0), 2.0);
  EXPECT_EQ(doc["otherData"].number_or("ring_capacity", 0), 4.0);

  ASSERT_TRUE(doc["traceEvents"].is_array());
  std::map<std::string, std::size_t> phases;
  std::vector<std::string> thread_names;
  std::size_t counters = 0;
  for (const JsonValue& event : doc["traceEvents"].as_array()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "M") {
      thread_names.push_back(event["args"].string_or("name", "?"));
    } else if (ph == "X") {
      ++phases[event.string_or("name", "?")];
      EXPECT_GE(event.number_or("dur", -1), 0.0);
    } else if (ph == "C") {
      ++counters;
      EXPECT_GT(event["args"].number_or("value", 0), 0.0);
    }
  }
  EXPECT_EQ(thread_names,
            (std::vector<std::string>{"coordinator", "worker_slot_0"}));
  EXPECT_EQ(phases["round"], 1u);
  EXPECT_EQ(phases["edge_round"], 1u);
  EXPECT_EQ(phases["device_train"], 4u);  // 6 recorded, ring holds 4
  EXPECT_EQ(counters, 1u);
}

TEST(SpanProfiler, ExportToUnwritablePathFails) {
  SpanProfiler profiler(1, 4);
  EXPECT_FALSE(
      profiler.write_chrome_trace("/nonexistent_dir_zz/profile.json"));
}

TEST(PhaseAccumulator, TracksCountTotalMinMax) {
  PhaseAccumulator acc;
  EXPECT_EQ(acc.count, 0u);
  EXPECT_DOUBLE_EQ(acc.mean_seconds(), 0.0);
  acc.add(2.0);
  acc.add(1.0);
  acc.add(4.0);
  EXPECT_EQ(acc.count, 3u);
  EXPECT_DOUBLE_EQ(acc.total_seconds, 7.0);
  EXPECT_DOUBLE_EQ(acc.min_seconds, 1.0);
  EXPECT_DOUBLE_EQ(acc.max_seconds, 4.0);
  EXPECT_NEAR(acc.mean_seconds(), 7.0 / 3.0, 1e-12);
}

TEST(PhaseTimerSet, IndexesByPhaseAndSumsTotals) {
  PhaseTimerSet timers;
  timers[Phase::DeviceTraining].add(0.5);
  timers[Phase::Evaluation].add(0.25);
  EXPECT_DOUBLE_EQ(timers[Phase::DeviceTraining].total_seconds, 0.5);
  EXPECT_DOUBLE_EQ(timers.total_seconds(), 0.75);
  timers.reset();
  EXPECT_EQ(timers[Phase::DeviceTraining].count, 0u);
  EXPECT_DOUBLE_EQ(timers.total_seconds(), 0.0);
}

TEST(PhaseNames, AreStableAndDistinct) {
  EXPECT_EQ(phase_name(Phase::SamplerDecision), "sampler_decision");
  EXPECT_EQ(phase_name(Phase::DeviceTraining), "device_training");
  EXPECT_EQ(phase_name(Phase::EdgeAggregation), "edge_aggregation");
  EXPECT_EQ(phase_name(Phase::CloudAggregation), "cloud_aggregation");
  EXPECT_EQ(phase_name(Phase::Evaluation), "evaluation");
}

// The phase-tagged SpanGuard is the engine's scoped phase timer.
TEST(ScopedTimer, ChargesScopeDurationOnDestruction) {
  PhaseTimerSet timers;
  {
    SpanGuard guard(timers[Phase::CloudAggregation], "cloud_aggregate");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // Nothing is recorded until the scope closes.
    EXPECT_EQ(timers[Phase::CloudAggregation].count, 0u);
  }
  const PhaseAccumulator& acc = timers[Phase::CloudAggregation];
  EXPECT_EQ(acc.count, 1u);
  EXPECT_GE(acc.total_seconds, 0.002 * 0.5);  // generous slack for coarse clocks
  EXPECT_DOUBLE_EQ(acc.min_seconds, acc.max_seconds);
}

TEST(PhaseSpanGuard, BoundGuardRecordsExactlyTheChargedInterval) {
  SpanProfiler profiler(1, 16);
  PhaseTimerSet timers;
  {
    SpanProfiler::ThreadScope scope(&profiler, 0);
    SpanGuard outer("round", 2);
    SpanGuard guard(timers[Phase::EdgeAggregation], "edge_reduce", 2, 5);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<Span> spans = profiler.drain();
  ASSERT_EQ(spans.size(), 2u);
  const Span& reduce = spans[1];
  EXPECT_STREQ(reduce.name, "edge_reduce");
  EXPECT_EQ(reduce.t, 2);
  EXPECT_EQ(reduce.id, 5);
  EXPECT_EQ(reduce.depth, 1u);  // nests under the plain guard
  const PhaseAccumulator& acc = timers[Phase::EdgeAggregation];
  ASSERT_EQ(acc.count, 1u);
  EXPECT_EQ(reduce.duration_seconds(), acc.total_seconds);
  EXPECT_GE(acc.total_seconds, 0.001 * 0.5);
}

TEST(PhaseSpanGuard, ThreadsChargeTheirOwnSetsAndTracks) {
  SpanProfiler profiler(3, 16);
  PhaseTimerSet sets[2];
  std::vector<std::thread> workers;
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    workers.emplace_back([&profiler, &sets, slot] {
      SpanProfiler::ThreadScope scope(&profiler, slot + 1);
      for (int i = 0; i <= static_cast<int>(slot); ++i) {
        SpanGuard guard(sets[slot][Phase::DeviceTraining], "device_train", i);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(sets[0][Phase::DeviceTraining].count, 1u);
  EXPECT_EQ(sets[1][Phase::DeviceTraining].count, 2u);
  profiler.merge_thread_rings();
  std::map<std::uint32_t, std::size_t> by_track;
  for (const Span& span : profiler.drain()) ++by_track[span.track];
  EXPECT_EQ(by_track[1], 1u);
  EXPECT_EQ(by_track[2], 2u);
}

}  // namespace
}  // namespace mach::obs
