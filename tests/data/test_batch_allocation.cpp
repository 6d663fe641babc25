// In-place Dataset::gather / sample_batch, riding in the test_allocation
// binary (tests/nn/test_allocation.cpp replaces the global allocation
// functions with counting wrappers there): the in-place forms must make the
// same draws as the returning ones, and a refill of the same size must
// reuse the batch's storage without touching the allocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

// The counting wrapper's counter (defined in tests/nn/test_allocation.cpp).
extern std::atomic<std::uint64_t> g_alloc_count;

namespace mach::data {
namespace {

Dataset make_small() {
  tensor::Tensor features({4, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  return Dataset(std::move(features), {0, 1, 2, 1}, 3);
}

TEST(Dataset, InPlaceSampleBatchMakesTheSameDrawsAndReusesStorage) {
  // The in-place form must draw exactly what the seed's draw-then-gather
  // did (batch_size uniform_index calls, in order) and leave the stream at
  // the same point; refills of the same size keep the feature buffer and
  // allocate nothing.
  const Dataset d = make_small();
  const std::vector<std::size_t> shard = {0, 2, 3};
  common::Rng expected_rng(9), rng(9);
  Batch batch;
  const float* storage = nullptr;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::size_t> chosen(4);
    for (auto& c : chosen) c = shard[expected_rng.uniform_index(shard.size())];
    const Batch want = d.gather(chosen);
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    d.sample_batch(shard, 4, rng, batch);
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    if (trial > 0) {
      EXPECT_EQ(after - before, 0u) << "trial " << trial;
    }
    EXPECT_EQ(batch.features.shape(), want.features.shape());
    EXPECT_EQ(batch.labels, want.labels);
    for (std::size_t i = 0; i < want.features.numel(); ++i) {
      EXPECT_EQ(batch.features[i], want.features[i]);
    }
    if (trial == 0) storage = batch.features.data();
    EXPECT_EQ(batch.features.data(), storage);
  }
  EXPECT_EQ(rng.uniform_index(1000), expected_rng.uniform_index(1000));
}

TEST(Dataset, InPlaceGatherReshapesForANewSize) {
  const Dataset d = make_small();
  Batch batch;
  d.gather(std::vector<std::size_t>{1, 2, 3}, batch);
  EXPECT_EQ(batch.features.shape(), (std::vector<std::size_t>{3, 2}));
  d.gather(std::vector<std::size_t>{3}, batch);
  EXPECT_EQ(batch.features.shape(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(batch.labels, (std::vector<int>{1}));
  EXPECT_FLOAT_EQ(batch.features[0], 6.0f);
  EXPECT_FLOAT_EQ(batch.features[1], 7.0f);
  EXPECT_THROW(d.gather(std::vector<std::size_t>{4}, batch), std::out_of_range);
}

}  // namespace
}  // namespace mach::data
