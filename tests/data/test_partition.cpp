#include "data/partition.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic.h"

namespace mach::data {
namespace {

Dataset uniform_dataset(std::size_t n, std::uint64_t seed) {
  SyntheticGenerator gen(SyntheticSpec::mnist_like(), seed);
  common::Rng rng(seed + 100);
  return gen.generate_uniform(n, rng);
}

TEST(LongTailedWeights, GeometricShape) {
  const auto w = long_tailed_weights(4, 0.5);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_DOUBLE_EQ(w[2], 0.25);
  EXPECT_DOUBLE_EQ(w[3], 0.125);
}

TEST(LongTailedWeights, RatioOneIsUniform) {
  const auto w = long_tailed_weights(5, 1.0);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(LongTailedWeights, InvalidRatioThrows) {
  EXPECT_THROW(long_tailed_weights(3, 0.0), std::invalid_argument);
  EXPECT_THROW(long_tailed_weights(3, 1.5), std::invalid_argument);
  EXPECT_THROW(long_tailed_weights(3, -0.2), std::invalid_argument);
}

struct PartitionCase {
  std::string name;
  std::function<Partition(const Dataset&, std::size_t, common::Rng&)> run;
};

// gtest otherwise prints the struct's raw bytes (heap pointers included)
// into every parameterised test's listed name.
void PrintTo(const PartitionCase& c, std::ostream* os) { *os << c.name; }

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<PartitionCase, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(PartitionProperty, ExactCoverAndNonEmpty) {
  const auto& [pcase, devices, seed] = GetParam();
  const Dataset d = uniform_dataset(403, seed);
  common::Rng rng(seed);
  const Partition p = pcase.run(d, devices, rng);
  ASSERT_EQ(p.size(), devices);
  EXPECT_TRUE(is_exact_partition(p, d.size()))
      << pcase.name << " devices=" << devices << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionProperty,
    ::testing::Combine(
        ::testing::Values(
            PartitionCase{"long_tailed",
                          [](const Dataset& d, std::size_t m, common::Rng& rng) {
                            return partition_long_tailed(d, m, 0.6, rng);
                          }},
            PartitionCase{"dirichlet",
                          [](const Dataset& d, std::size_t m, common::Rng& rng) {
                            return partition_dirichlet(d, m, 0.3, rng);
                          }},
            PartitionCase{"iid",
                          [](const Dataset& d, std::size_t m, common::Rng& rng) {
                            return partition_iid(d, m, rng);
                          }},
            PartitionCase{"shards",
                          [](const Dataset& d, std::size_t m, common::Rng& rng) {
                            return partition_shards(d, m, 2, rng);
                          }}),
        ::testing::Values(std::size_t{1}, std::size_t{7}, std::size_t{20}),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{99})),
    [](const auto& info) {
      return std::get<0>(info.param).name + "_m" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(PartitionLongTailed, DevicesAreSkewed) {
  const Dataset d = uniform_dataset(1000, 3);
  common::Rng rng(3);
  const Partition p = partition_long_tailed(d, 10, 0.5, rng);
  // On average a device's dominant class should hold well over the uniform
  // share (10%) of its examples.
  double dominant_share = 0.0;
  for (const auto& part : p) {
    const auto histogram = d.class_histogram(part);
    const std::size_t max_count = *std::max_element(histogram.begin(), histogram.end());
    dominant_share += static_cast<double>(max_count) / part.size();
  }
  dominant_share /= static_cast<double>(p.size());
  EXPECT_GT(dominant_share, 0.25);
}

TEST(PartitionLongTailed, NearEqualShardSizes) {
  const Dataset d = uniform_dataset(205, 4);
  common::Rng rng(4);
  const Partition p = partition_long_tailed(d, 10, 0.6, rng);
  for (const auto& part : p) {
    EXPECT_GE(part.size(), 20u);
    EXPECT_LE(part.size(), 21u);
  }
}

TEST(PartitionDirichlet, SmallAlphaMoreSkewedThanLarge) {
  const Dataset d = uniform_dataset(2000, 5);
  auto dominant_share = [&](double alpha, std::uint64_t seed) {
    common::Rng rng(seed);
    const Partition p = partition_dirichlet(d, 10, alpha, rng);
    double total = 0.0;
    std::size_t counted = 0;
    for (const auto& part : p) {
      if (part.empty()) continue;
      const auto histogram = d.class_histogram(part);
      total += static_cast<double>(
                   *std::max_element(histogram.begin(), histogram.end())) /
               part.size();
      ++counted;
    }
    return total / counted;
  };
  EXPECT_GT(dominant_share(0.05, 6), dominant_share(100.0, 6) + 0.1);
}

TEST(PartitionIid, BalancedClassMix) {
  const Dataset d = uniform_dataset(2000, 7);
  common::Rng rng(7);
  const Partition p = partition_iid(d, 4, rng);
  for (const auto& part : p) {
    const auto histogram = d.class_histogram(part);
    for (std::size_t count : histogram) {
      // Each class ~10% of a 500-example shard.
      EXPECT_NEAR(static_cast<double>(count), 50.0, 25.0);
    }
  }
}

TEST(PartitionShards, AtMostShardsPerDeviceClasses) {
  const Dataset d = uniform_dataset(1000, 8);
  common::Rng rng(8);
  const Partition p = partition_shards(d, 10, 2, rng);
  for (const auto& part : p) {
    const auto histogram = d.class_histogram(part);
    // Two shards from a label-sorted order touch at most 4 classes (each
    // shard can straddle one class boundary).
    std::size_t classes_present = 0;
    for (std::size_t count : histogram) classes_present += count > 0 ? 1 : 0;
    EXPECT_LE(classes_present, 4u);
  }
}

TEST(Partition, ZeroDevicesThrows) {
  const Dataset d = uniform_dataset(50, 9);
  common::Rng rng(9);
  EXPECT_THROW(partition_long_tailed(d, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(partition_iid(d, 0, rng), std::invalid_argument);
  EXPECT_THROW(partition_dirichlet(d, 0, 0.5, rng), std::invalid_argument);
  EXPECT_THROW(partition_shards(d, 0, 2, rng), std::invalid_argument);
}

TEST(Partition, MoreDevicesThanExamplesThrows) {
  const Dataset d = uniform_dataset(5, 10);
  common::Rng rng(10);
  EXPECT_THROW(partition_long_tailed(d, 10, 0.5, rng), std::invalid_argument);
}

TEST(IsExactPartition, DetectsViolations) {
  EXPECT_TRUE(is_exact_partition({{0, 1}, {2}}, 3));
  EXPECT_FALSE(is_exact_partition({{0, 1}, {1}}, 3));   // duplicate
  EXPECT_FALSE(is_exact_partition({{0, 1}}, 3));        // missing
  EXPECT_FALSE(is_exact_partition({{0, 3}, {1, 2}}, 3));  // out of range
  EXPECT_FALSE(is_exact_partition({{0, 1, 2}, {}}, 3)); // empty part
}

}  // namespace
}  // namespace mach::data
