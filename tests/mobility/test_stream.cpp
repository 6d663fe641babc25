#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ckpt/bytes.h"
#include "mobility/stream.h"

namespace mach::mobility {
namespace {

TEST(GridMobilityStream, DeterministicAcrossInstances) {
  const GridMobilityStream::Config config{
      .num_devices = 500, .num_stations = 40, .seed = 77,
      .min_dwell = 2, .max_dwell = 9};
  GridMobilityStream a(config);
  GridMobilityStream b(config);
  std::vector<std::uint32_t> moved_a;
  std::vector<std::uint32_t> moved_b;
  for (int t = 0; t < 60; ++t) {
    ASSERT_TRUE(std::equal(a.stations().begin(), a.stations().end(),
                           b.stations().begin()));
    a.advance(moved_a);
    b.advance(moved_b);
    ASSERT_EQ(moved_a, moved_b);
  }
}

TEST(GridMobilityStream, StepCostIsBoundedByDueDevicesNotPopulation) {
  // With dwell in [4, 12], each step's movers are ~M/8, far below M. The
  // moved list (ascending, station actually changed) can only be smaller.
  const GridMobilityStream::Config config{
      .num_devices = 10000, .num_stations = 100, .seed = 1,
      .min_dwell = 4, .max_dwell = 12};
  GridMobilityStream stream(config);
  std::vector<std::uint32_t> moved;
  std::size_t max_moved = 0;
  for (int t = 0; t < 50; ++t) {
    stream.advance(moved);
    max_moved = std::max(max_moved, moved.size());
    for (std::size_t i = 1; i < moved.size(); ++i) {
      ASSERT_LT(moved[i - 1], moved[i]);
    }
  }
  EXPECT_LT(max_moved, config.num_devices / 2);
  EXPECT_GT(max_moved, 0u);
}

TEST(GridMobilityStream, CursorRoundTripContinuesBitwise) {
  const GridMobilityStream::Config config{
      .num_devices = 300, .num_stations = 25, .seed = 19,
      .min_dwell = 1, .max_dwell = 7};
  GridMobilityStream live(config);
  std::vector<std::uint32_t> moved;
  for (int step = 0; step < 33; ++step) live.advance(moved);
  ckpt::ByteWriter cursor;
  live.save_cursor(cursor);
  // Cursor stays at the fixed per-device budget: t + count + 8B per device.
  EXPECT_EQ(cursor.size(),
            16u + config.num_devices * GridMobilityStream::bytes_per_device());

  GridMobilityStream restored(config);
  ckpt::ByteReader in(cursor.data());
  restored.load_cursor(in);
  EXPECT_EQ(restored.t(), 33u);

  std::vector<std::uint32_t> moved_a;
  std::vector<std::uint32_t> moved_b;
  for (int step = 0; step < 40; ++step) {
    live.advance(moved_a);
    restored.advance(moved_b);
    ASSERT_EQ(moved_a, moved_b) << "step " << step;
    ASSERT_TRUE(std::equal(live.stations().begin(), live.stations().end(),
                           restored.stations().begin()));
  }
}

TEST(GridMobilityStream, RejectsCorruptCursors) {
  const GridMobilityStream::Config config{
      .num_devices = 4, .num_stations = 3, .seed = 2,
      .min_dwell = 1, .max_dwell = 3};
  GridMobilityStream stream(config);
  ckpt::ByteWriter cursor;
  stream.save_cursor(cursor);
  {
    auto bytes = cursor.data();
    bytes[16] = 0xff;  // first station id -> out of range
    GridMobilityStream target(config);
    ckpt::ByteReader in(bytes);
    EXPECT_THROW(target.load_cursor(in), ckpt::CorruptPayload);
  }
  {
    ckpt::ByteWriter truncated;
    truncated.u64(0);
    truncated.u64(99);  // wrong device count
    GridMobilityStream target(config);
    ckpt::ByteReader in(truncated.data());
    EXPECT_THROW(target.load_cursor(in), ckpt::CorruptPayload);
  }
}

TEST(GridMobilityStream, ValidatesConfig) {
  EXPECT_THROW(GridMobilityStream({.num_devices = 0, .num_stations = 3,
                                   .seed = 0, .min_dwell = 1, .max_dwell = 2}),
               std::invalid_argument);
  EXPECT_THROW(GridMobilityStream({.num_devices = 3, .num_stations = 3,
                                   .seed = 0, .min_dwell = 0, .max_dwell = 2}),
               std::invalid_argument);
  EXPECT_THROW(GridMobilityStream({.num_devices = 3, .num_stations = 3,
                                   .seed = 0, .min_dwell = 5, .max_dwell = 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mach::mobility
