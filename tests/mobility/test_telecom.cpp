#include "mobility/telecom.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "mobility/stations.h"

namespace mach::mobility {
namespace {

TEST(TelecomTimestamp, ParsesAndFormats) {
  const std::string text = "2014-06-01 08:30:15";
  const std::int64_t seconds = parse_telecom_timestamp(text);
  EXPECT_EQ(format_telecom_timestamp(seconds), text);
}

TEST(TelecomTimestamp, OrderingAndDifferences) {
  const auto a = parse_telecom_timestamp("2014-06-01 00:00:00");
  const auto b = parse_telecom_timestamp("2014-06-01 01:00:00");
  const auto c = parse_telecom_timestamp("2014-06-02 00:00:00");
  EXPECT_EQ(b - a, 3600);
  EXPECT_EQ(c - a, 86400);
}

TEST(TelecomTimestamp, LeapYearHandled) {
  const auto feb28 = parse_telecom_timestamp("2016-02-28 00:00:00");
  const auto mar01 = parse_telecom_timestamp("2016-03-01 00:00:00");
  EXPECT_EQ(mar01 - feb28, 2 * 86400);  // 2016 is a leap year
}

TEST(TelecomTimestamp, RejectsMalformed) {
  EXPECT_THROW(parse_telecom_timestamp("not a date"), std::invalid_argument);
  EXPECT_THROW(parse_telecom_timestamp("2014-13-01 00:00:00"), std::invalid_argument);
  EXPECT_THROW(parse_telecom_timestamp("2014-01-01 25:00:00"), std::invalid_argument);
}

TelecomImportOptions small_options() {
  TelecomImportOptions options;
  options.step_seconds = 3600;
  options.num_devices = 2;
  options.num_stations = 3;
  options.horizon = 6;
  options.origin_time = parse_telecom_timestamp("2014-06-01 00:00:00");
  return options;
}

TEST(TelecomDiscretize, BasicSessionsAndGapFilling) {
  const auto options = small_options();
  const auto at = [&](const char* text) { return parse_telecom_timestamp(text); };
  std::vector<TelecomRecord> records = {
      // Device 0: station 0 for two hours, gap, then station 1.
      {0, 0, at("2014-06-01 00:10:00"), at("2014-06-01 01:50:00")},
      {0, 1, at("2014-06-01 04:05:00"), at("2014-06-01 05:30:00")},
      // Device 1: single session; everything else forward/backward-filled.
      {1, 2, at("2014-06-01 02:30:00"), at("2014-06-01 03:10:00")},
  };
  const Trace trace = discretize_telecom_records(records, options);
  const TraceReplay replay(trace);
  // Device 0: steps 0-1 station 0; gap steps 2-3 hold station 0; steps 4-5
  // station 1.
  EXPECT_EQ(replay.station_of(0, 0), 0u);
  EXPECT_EQ(replay.station_of(1, 0), 0u);
  EXPECT_EQ(replay.station_of(2, 0), 0u);
  EXPECT_EQ(replay.station_of(3, 0), 0u);
  EXPECT_EQ(replay.station_of(4, 0), 1u);
  EXPECT_EQ(replay.station_of(5, 0), 1u);
  // Device 1: leading gap takes the first-ever station.
  EXPECT_EQ(replay.station_of(0, 1), 2u);
  EXPECT_EQ(replay.station_of(5, 1), 2u);
}

TEST(TelecomDiscretize, OverlapLaterSessionWins) {
  const auto options = small_options();
  const auto at = [&](const char* text) { return parse_telecom_timestamp(text); };
  std::vector<TelecomRecord> records = {
      {0, 0, at("2014-06-01 00:00:00"), at("2014-06-01 06:00:00")},
      {0, 1, at("2014-06-01 02:30:00"), at("2014-06-01 03:30:00")},
      {1, 2, at("2014-06-01 00:00:00"), at("2014-06-01 06:00:00")},
  };
  const Trace trace = discretize_telecom_records(records, options);
  const TraceReplay replay(trace);
  EXPECT_EQ(replay.station_of(0, 0), 0u);
  EXPECT_EQ(replay.station_of(2, 0), 1u);  // overlapped: later start wins
  EXPECT_EQ(replay.station_of(3, 0), 1u);
  EXPECT_EQ(replay.station_of(4, 0), 0u);  // long session resumes
}

TEST(TelecomDiscretize, ValidatesInput) {
  auto options = small_options();
  const auto at = [&](const char* text) { return parse_telecom_timestamp(text); };
  const std::vector<TelecomRecord> ok = {
      {0, 0, at("2014-06-01 00:00:00"), at("2014-06-01 06:00:00")},
      {1, 1, at("2014-06-01 00:00:00"), at("2014-06-01 06:00:00")}};
  options.horizon = 0;
  EXPECT_THROW(discretize_telecom_records(ok, options), std::invalid_argument);
  options = small_options();
  const std::vector<TelecomRecord> bad_station = {
      {0, 9, at("2014-06-01 00:00:00"), at("2014-06-01 06:00:00")}};
  EXPECT_THROW(discretize_telecom_records(bad_station, options),
               std::invalid_argument);
  // Device with no sessions at all.
  const std::vector<TelecomRecord> missing_device = {
      {0, 0, at("2014-06-01 00:00:00"), at("2014-06-01 06:00:00")}};
  EXPECT_THROW(discretize_telecom_records(missing_device, options),
               std::invalid_argument);
}

TEST(TelecomCsv, RoundTrip) {
  const auto at = [&](const char* text) { return parse_telecom_timestamp(text); };
  const std::vector<TelecomRecord> records = {
      {0, 5, at("2014-06-01 08:00:00"), at("2014-06-01 09:30:00")},
      {3, 2, at("2014-07-15 23:59:59"), at("2014-07-16 00:30:00")},
  };
  const std::string path = testing::TempDir() + "telecom.csv";
  ASSERT_TRUE(write_telecom_csv(records, path));
  const auto loaded = read_telecom_csv(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].device, 0u);
  EXPECT_EQ(loaded[0].station, 5u);
  EXPECT_EQ(loaded[0].start_time, records[0].start_time);
  EXPECT_EQ(loaded[1].end_time, records[1].end_time);
  std::remove(path.c_str());
}

TEST(TelecomCsv, MissingFileThrows) {
  EXPECT_THROW(read_telecom_csv("/no/such.csv"), std::runtime_error);
}

TEST(TelecomCsv, RejectsAMissingHeader) {
  // Device 0 at station 1 for steps 0-2 and at station 2 for steps 3-5.
  // Read without its header, the first session would be skipped as one and
  // gap filling would put device 0 at station 2 for all six steps.
  const std::string sessions =
      "0,1,2014-06-01 00:00:00,2014-06-01 03:00:00\n"
      "0,2,2014-06-01 03:00:00,2014-06-01 06:00:00\n"
      "1,0,2014-06-01 00:00:00,2014-06-01 06:00:00\n";
  const std::string path =
      testing::TempDir() + "telecom_no_header_" + std::to_string(::getpid()) +
      ".csv";
  {
    std::ofstream out(path);
    out << sessions;
  }
  try {
    read_telecom_csv(path);
    ADD_FAILURE() << "a header-less file was read";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  {
    std::ofstream out(path);
    out << "device_id,station_id,start_time,end_time\n" << sessions;
  }
  const auto records = read_telecom_csv(path);
  ASSERT_EQ(records.size(), 3u);
  const TraceReplay replay(discretize_telecom_records(records, small_options()));
  EXPECT_EQ(replay.station_of(2, 0), 1u);
  EXPECT_EQ(replay.station_of(3, 0), 2u);
  std::remove(path.c_str());
}

TEST(TelecomCsv, RejectsBadIdsWithContext) {
  // Each id once as the device and once as the station of line 3: not a
  // number, past uint32 (2^32 + 1, which a cast would wrap to 1) and a
  // number with trailing text.
  const std::string path =
      testing::TempDir() + "telecom_bad_id_" + std::to_string(::getpid()) +
      ".csv";
  for (const std::string id : {"x", "4294967297", "12x"}) {
    for (const bool device : {true, false}) {
      {
        std::ofstream out(path);
        out << "device_id,station_id,start_time,end_time\n"
            << "0,1,2014-06-01 00:00:00,2014-06-01 03:00:00\n"
            << (device ? id + ",1" : "0," + id)
            << ",2014-06-01 03:00:00,2014-06-01 06:00:00\n";
      }
      try {
        read_telecom_csv(path);
        ADD_FAILURE() << "id '" << id << "' was read";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
        EXPECT_NE(what.find(device ? "device_id" : "station_id"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("'" + id + "'"), std::string::npos) << what;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TelecomPipeline, SynthesizeDiscretizeRoundTrip) {
  // Full pipeline: model -> raw timestamped records -> CSV -> discretised
  // trace -> replay, exactly how a real dataset would flow in.
  StationLayoutSpec layout;
  layout.num_stations = 15;
  auto stations = generate_stations(layout, 31);
  MarkovMobilityModel model(std::move(stations), 0.8, 20.0);
  TelecomImportOptions options;
  options.step_seconds = 1800;
  options.num_devices = 12;
  options.num_stations = 15;
  options.horizon = 48;
  options.origin_time = parse_telecom_timestamp("2014-06-01 00:00:00");
  common::Rng rng(32);
  const auto records =
      synthesize_telecom_records(model, options.num_devices, options.horizon,
                                 options, rng);
  EXPECT_GE(records.size(), options.num_devices);

  const std::string path = testing::TempDir() + "telecom_pipeline.csv";
  ASSERT_TRUE(write_telecom_csv(records, path));
  const auto loaded = read_telecom_csv(path);
  const Trace trace = discretize_telecom_records(loaded, options);
  // TraceReplay construction checks the gap-free cover invariant.
  const TraceReplay replay(trace);
  EXPECT_EQ(replay.num_devices(), options.num_devices);
  EXPECT_EQ(replay.horizon(), options.horizon);
  EXPECT_GT(replay.churn_rate(), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mach::mobility
