#include "mobility/schedule.h"

#include <gtest/gtest.h>

#include "mobility/mobility_model.h"

namespace mach::mobility {
namespace {

TEST(MobilitySchedule, ValidatesConstruction) {
  EXPECT_THROW(MobilitySchedule(0, 2, 2, {}), std::invalid_argument);
  EXPECT_THROW(MobilitySchedule(2, 2, 2, {0, 0, 0}), std::invalid_argument);  // size
  EXPECT_THROW(MobilitySchedule(2, 2, 1, {0, 2}), std::invalid_argument);  // edge id
  EXPECT_NO_THROW(MobilitySchedule(2, 2, 1, {0, 1}));
}

TEST(MobilitySchedule, EdgeOfWrapsAroundHorizon) {
  // horizon 2: t=0 -> edge 0, t=1 -> edge 1, t=2 wraps to edge 0.
  MobilitySchedule schedule(2, 1, 2, {0, 1});
  EXPECT_EQ(schedule.edge_of(0, 0), 0u);
  EXPECT_EQ(schedule.edge_of(1, 0), 1u);
  EXPECT_EQ(schedule.edge_of(2, 0), 0u);
  EXPECT_EQ(schedule.edge_of(3, 0), 1u);
}

TEST(MobilitySchedule, DevicesPerEdgeIsPartition) {
  common::Rng rng(1);
  const auto schedule = MobilitySchedule::uniform_random(4, 30, 20, rng);
  for (std::size_t t = 0; t < 20; ++t) {
    const auto per_edge = schedule.devices_per_edge(t);
    ASSERT_EQ(per_edge.size(), 4u);
    std::vector<bool> seen(30, false);
    std::size_t total = 0;
    for (std::size_t n = 0; n < per_edge.size(); ++n) {
      for (auto device : per_edge[n]) {
        EXPECT_EQ(schedule.edge_of(t, device), n);
        EXPECT_FALSE(seen[device]);  // Eq. (1): edges are disjoint
        seen[device] = true;
        ++total;
      }
    }
    EXPECT_EQ(total, 30u);  // Eq. (1): union covers all devices
  }
}

TEST(MobilitySchedule, StationaryHasZeroChurn) {
  common::Rng rng(2);
  const auto schedule = MobilitySchedule::stationary(5, 40, 50, rng);
  EXPECT_DOUBLE_EQ(schedule.churn_rate(), 0.0);
  for (std::size_t m = 0; m < 40; ++m) {
    const auto edge = schedule.edge_of(0, m);
    for (std::size_t t = 1; t < 50; ++t) EXPECT_EQ(schedule.edge_of(t, m), edge);
  }
}

TEST(MobilitySchedule, UniformRandomChurnNearExpected) {
  common::Rng rng(3);
  const std::size_t edges = 5;
  const auto schedule = MobilitySchedule::uniform_random(edges, 100, 200, rng);
  // Probability of switching between independent uniform draws: 1 - 1/n.
  EXPECT_NEAR(schedule.churn_rate(), 1.0 - 1.0 / edges, 0.02);
}

TEST(MobilitySchedule, MeanEdgeOccupancySumsToOne) {
  common::Rng rng(4);
  const auto schedule = MobilitySchedule::uniform_random(6, 50, 30, rng);
  const auto occupancy = schedule.mean_edge_occupancy();
  ASSERT_EQ(occupancy.size(), 6u);
  double total = 0.0;
  for (double o : occupancy) total += o;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MobilitySchedule, FromTraceMapsThroughClustering) {
  Trace trace(2, 4, 3);
  trace.add_record({0, 0, 0, 3});
  trace.add_record({1, 3, 0, 2});
  trace.add_record({1, 1, 2, 3});
  const TraceReplay replay(trace);
  Clustering clustering;
  clustering.assignment = {0, 0, 1, 1};  // stations 0,1 -> edge 0; 2,3 -> edge 1
  clustering.centroids = {{0, 0}, {10, 10}};
  const auto schedule = MobilitySchedule::from_trace(replay, clustering);
  EXPECT_EQ(schedule.num_edges(), 2u);
  EXPECT_EQ(schedule.edge_of(0, 0), 0u);
  EXPECT_EQ(schedule.edge_of(0, 1), 1u);
  EXPECT_EQ(schedule.edge_of(2, 1), 0u);
}

TEST(MobilitySchedule, EdgeChurnNotAboveStationChurn) {
  // Moving between stations of the same cluster is not an edge switch, so
  // edge churn is bounded by station churn.
  StationLayoutSpec layout;
  layout.num_stations = 30;
  auto stations = generate_stations(layout, 9);
  const auto clustering = cluster_stations(stations, 5, 9);
  MarkovMobilityModel model(std::move(stations), 0.5, 15.0);
  const Trace trace = generate_trace(model, 40, 120, 9);
  const TraceReplay replay(trace);
  const auto schedule = MobilitySchedule::from_trace(replay, clustering);
  EXPECT_LE(schedule.churn_rate(), replay.churn_rate() + 1e-12);
  EXPECT_GT(schedule.churn_rate(), 0.0);
}

}  // namespace
}  // namespace mach::mobility
