#include "mobility/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "ckpt/run_state.h"
#include "mobility/mobility_model.h"
#include "mobility/stations.h"

namespace mach::mobility {
namespace {

TEST(Trace, AddRecordValidates) {
  Trace trace(2, 3, 10);
  EXPECT_NO_THROW(trace.add_record({0, 0, 0, 5}));
  EXPECT_THROW(trace.add_record({2, 0, 0, 5}), std::invalid_argument);  // device
  EXPECT_THROW(trace.add_record({0, 3, 0, 5}), std::invalid_argument);  // station
  EXPECT_THROW(trace.add_record({0, 0, 5, 5}), std::invalid_argument);  // empty span
  EXPECT_THROW(trace.add_record({0, 0, 6, 5}), std::invalid_argument);  // inverted
  EXPECT_THROW(trace.add_record({0, 0, 0, 11}), std::invalid_argument); // beyond horizon
}

TEST(Trace, MeanDwell) {
  Trace trace(2, 2, 10);
  trace.add_record({0, 0, 0, 4});   // 4 steps
  trace.add_record({0, 1, 4, 10});  // 6 steps
  EXPECT_DOUBLE_EQ(trace.mean_dwell(), 5.0);
}

TEST(TraceReplay, ResolvesStations) {
  Trace trace(2, 3, 6);
  trace.add_record({0, 1, 0, 6});
  trace.add_record({1, 0, 0, 3});
  trace.add_record({1, 2, 3, 6});
  const TraceReplay replay(trace);
  EXPECT_EQ(replay.station_of(0, 0), 1u);
  EXPECT_EQ(replay.station_of(5, 0), 1u);
  EXPECT_EQ(replay.station_of(2, 1), 0u);
  EXPECT_EQ(replay.station_of(3, 1), 2u);
}

TEST(TraceReplay, RejectsOverlap) {
  Trace trace(1, 2, 6);
  trace.add_record({0, 0, 0, 4});
  trace.add_record({0, 1, 3, 6});
  EXPECT_THROW(TraceReplay{trace}, std::invalid_argument);
}

TEST(TraceReplay, RejectsGaps) {
  Trace trace(1, 2, 6);
  trace.add_record({0, 0, 0, 3});
  // steps 3..5 uncovered
  EXPECT_THROW(TraceReplay{trace}, std::invalid_argument);
}

TEST(TraceReplay, ChurnRate) {
  Trace trace(1, 2, 4);
  trace.add_record({0, 0, 0, 2});
  trace.add_record({0, 1, 2, 4});
  const TraceReplay replay(trace);
  // One switch over three transitions.
  EXPECT_NEAR(replay.churn_rate(), 1.0 / 3.0, 1e-12);
}

TEST(Trace, WriteCsvWritesHeaderAndRecords) {
  Trace trace(2, 3, 8);
  trace.add_record({0, 2, 0, 8});
  trace.add_record({1, 1, 0, 4});
  trace.add_record({1, 0, 4, 8});
  const std::string path = testing::TempDir() + "trace_write_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(trace.write_csv(path));
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written,
            "device,station,t_start,t_end\n"
            "0,2,0,8\n"
            "1,1,0,4\n"
            "1,0,4,8\n");
  std::remove(path.c_str());
}

TEST(Trace, RejectsDimensionsPastRecordIds) {
  // TraceRecord's ids are uint32_t, and generate_trace counts devices and
  // steps in uint32_t: one more would wrap its loops.
  constexpr std::size_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  ASSERT_THROW(Trace(kMaxId + 1, 1, 1), std::invalid_argument);
  ASSERT_THROW(Trace(1, kMaxId + 1, 1), std::invalid_argument);
  ASSERT_THROW(Trace(1, 1, kMaxId + 1), std::invalid_argument);
  EXPECT_NO_THROW(Trace(kMaxId, kMaxId, kMaxId));
}

TEST(Trace, MeanDwellOfEmptyTraceIsZero) {
  const Trace trace(3, 2, 10);
  EXPECT_DOUBLE_EQ(trace.mean_dwell(), 0.0);
}

// ---------------------------------------------------------------------------
// Mobility models feeding traces.
// ---------------------------------------------------------------------------

class GeneratedTraceProperty
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(GeneratedTraceProperty, CoversEveryDeviceEveryStep) {
  const auto [stay_prob, seed] = GetParam();
  StationLayoutSpec layout;
  layout.num_stations = 20;
  auto stations = generate_stations(layout, seed);
  MarkovMobilityModel model(std::move(stations), stay_prob, 20.0);
  const std::size_t devices = 15, horizon = 40;
  const Trace trace = generate_trace(model, devices, horizon, seed);
  // TraceReplay construction itself asserts the exact-cover invariant (Eq. 1
  // at station level); additionally check record count sanity.
  const TraceReplay replay(trace);
  EXPECT_EQ(replay.horizon(), horizon);
  EXPECT_EQ(replay.num_devices(), devices);
  EXPECT_GE(trace.records().size(), devices);  // at least one record each
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratedTraceProperty,
    ::testing::Combine(::testing::Values(0.0, 0.5, 0.9, 0.99),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{7})));

TEST(MarkovMobilityModel, HigherStayProbLowersChurn) {
  StationLayoutSpec layout;
  layout.num_stations = 25;
  const auto stations = generate_stations(layout, 3);
  MarkovMobilityModel sticky(stations, 0.95, 20.0);
  MarkovMobilityModel jumpy(stations, 0.1, 20.0);
  const Trace trace_sticky = generate_trace(sticky, 30, 100, 3);
  const Trace trace_jumpy = generate_trace(jumpy, 30, 100, 3);
  EXPECT_LT(TraceReplay(trace_sticky).churn_rate(),
            TraceReplay(trace_jumpy).churn_rate());
}

TEST(MarkovMobilityModel, InvalidConfigThrows) {
  const std::vector<Point> stations = {{0, 0}, {1, 1}};
  EXPECT_THROW(MarkovMobilityModel({}, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(MarkovMobilityModel(stations, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(MarkovMobilityModel(stations, -0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(MarkovMobilityModel(stations, 0.5, 0.0), std::invalid_argument);
}

TEST(MarkovMobilityModel, PrefersNearbyStations) {
  // Stations: cluster at origin plus one far outlier; transitions from the
  // cluster should rarely pick the outlier.
  std::vector<Point> stations = {{0, 0}, {1, 0}, {0, 1}, {500, 500}};
  MarkovMobilityModel model(stations, 0.0, 5.0);
  common::Rng rng(4);
  int outlier = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (model.next_station(0, rng) == 3u) ++outlier;
  }
  EXPECT_LT(outlier, n / 100);
}

TEST(GenerateTrace, ZeroHorizonThrows) {
  const std::vector<Point> stations = {{0, 0}};
  MarkovMobilityModel model(stations, 0.5, 1.0);
  EXPECT_THROW(generate_trace(model, 1, 0, 1), std::invalid_argument);
}

/// One ckpt::hash_u64 chain over every record's (device, station, t_start,
/// t_end), in record order.
std::uint64_t records_digest(const Trace& trace) {
  std::uint64_t h = ckpt::kHashSeed;
  for (const auto& r : trace.records()) {
    h = ckpt::hash_u64(h, r.device);
    h = ckpt::hash_u64(h, r.station);
    h = ckpt::hash_u64(h, r.t_start);
    h = ckpt::hash_u64(h, r.t_end);
  }
  return h;
}

TEST(GenerateTrace, RecordsArePinned) {
  // Recorded values: a change to the per-device RNG streams, their draw
  // order or the device-major record order moves them (and with them every
  // golden run, whose schedule is replayed from these records).
  StationLayoutSpec layout;
  layout.num_stations = 20;
  const auto stations = generate_stations(layout, 9);
  MarkovMobilityModel markov(stations, 0.7, 20.0);
  EXPECT_EQ(records_digest(generate_trace(markov, 60, 80, 3)), 0xbf8862686b0701faULL);
  // Horizon 1: one record per device, from the initial draw alone.
  const Trace single = generate_trace(markov, 25, 1, 11);
  EXPECT_EQ(single.records().size(), 25u);
  EXPECT_EQ(records_digest(single), 0x2922d5ab93748f8aULL);
}

}  // namespace
}  // namespace mach::mobility
