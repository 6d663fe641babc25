// ScaleSimulator contract tests: determinism, bitwise resume, sublinear
// round structure, and the fixed per-device memory budget the million-device
// path is built on. Populations here are 10³–10⁴ so the suite stays fast;
// bench/scale exercises the 10⁶ end.
#include "core/scale_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ckpt/bytes.h"
#include "ckpt/run_state.h"

namespace mach::core {
namespace {

ScaleConfig small_config() {
  ScaleConfig config;
  config.num_devices = 2000;
  config.num_edges = 16;
  config.seed = 42;
  config.participation = 0.02;
  config.cloud_every = 3;
  config.min_dwell = 3;
  config.max_dwell = 9;
  return config;
}

std::vector<ScaleRoundStats> run(ScaleSimulator& sim, std::size_t rounds) {
  std::vector<ScaleRoundStats> stats;
  stats.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) stats.push_back(sim.step());
  return stats;
}

void expect_same_stats(const std::vector<ScaleRoundStats>& a,
                       const std::vector<ScaleRoundStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].t, b[i].t);
    ASSERT_EQ(a[i].movers, b[i].movers) << "t=" << a[i].t;
    ASSERT_EQ(a[i].participants, b[i].participants) << "t=" << a[i].t;
    ASSERT_EQ(a[i].weight_rebuilds, b[i].weight_rebuilds) << "t=" << a[i].t;
    ASSERT_EQ(a[i].sample_digest, b[i].sample_digest) << "t=" << a[i].t;
  }
}

TEST(ScaleSimulator, ValidatesConfig) {
  ScaleConfig config = small_config();
  config.num_devices = 0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.num_edges = 0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.participation = 0.0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.participation = 1.5;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.cloud_every = 0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  config = small_config();
  config.rebuild_drift = 0.0;
  EXPECT_THROW(ScaleSimulator{config}, std::invalid_argument);
  EXPECT_NO_THROW(ScaleSimulator{small_config()});
}

TEST(ScaleSimulator, MembersPartitionThePopulationEveryRound) {
  ScaleSimulator sim(small_config());
  for (std::size_t r = 0; r < 20; ++r) {
    std::set<std::uint32_t> seen;
    std::size_t total = 0;
    for (std::size_t n = 0; n < sim.num_edges(); ++n) {
      for (const std::uint32_t device : sim.edge_members(n)) {
        EXPECT_TRUE(seen.insert(device).second)
            << "device " << device << " on two edges";
        ++total;
      }
    }
    EXPECT_EQ(total, sim.num_devices());
    sim.step();
  }
}

TEST(ScaleSimulator, DeterministicAcrossInstances) {
  ScaleSimulator a(small_config());
  ScaleSimulator b(small_config());
  const auto stats_a = run(a, 30);
  const auto stats_b = run(b, 30);
  expect_same_stats(stats_a, stats_b);
  for (std::uint32_t m = 0; m < 50; ++m) {
    EXPECT_EQ(a.estimate(m), b.estimate(m)) << "device " << m;
    EXPECT_EQ(a.participations(m), b.participations(m));
  }
}

TEST(ScaleSimulator, SeedChangesTheSampleSequence) {
  ScaleConfig other = small_config();
  other.seed = 43;
  ScaleSimulator a(small_config());
  ScaleSimulator b(other);
  const auto stats_a = run(a, 10);
  const auto stats_b = run(b, 10);
  bool any_diff = false;
  for (std::size_t i = 0; i < stats_a.size(); ++i) {
    any_diff = any_diff || stats_a[i].sample_digest != stats_b[i].sample_digest;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScaleSimulator, AliasModeIsDeterministicToo) {
  ScaleConfig config = small_config();
  config.use_alias_draws = true;
  ScaleSimulator a(config);
  ScaleSimulator b(config);
  expect_same_stats(run(a, 25), run(b, 25));
  // Batch mode drops duplicate draws, so it participates at most as many
  // devices per round as the exact without-replacement path.
  ScaleSimulator exact(small_config());
  ScaleSimulator batch(config);
  for (std::size_t r = 0; r < 10; ++r) {
    const auto se = exact.step();
    const auto sb = batch.step();
    EXPECT_LE(sb.participants, se.participants + 1) << "t=" << r;
    EXPECT_GT(sb.participants, 0u);
  }
}

TEST(ScaleSimulator, SaveLoadResumesBitwise) {
  for (const bool alias : {false, true}) {
    ScaleConfig config = small_config();
    config.use_alias_draws = alias;

    ScaleSimulator live(config);
    run(live, 17);  // mid-epoch: between cloud rounds and rebuilds
    ckpt::ByteWriter snapshot;
    live.save_state(snapshot);

    ScaleSimulator restored(config);
    ckpt::ByteReader in(snapshot.data());
    restored.load_state(in);
    EXPECT_EQ(restored.t(), 17u);

    const auto tail_live = run(live, 23);
    const auto tail_restored = run(restored, 23);
    expect_same_stats(tail_live, tail_restored);
    for (std::uint32_t m = 0; m < 50; ++m) {
      EXPECT_EQ(live.estimate(m), restored.estimate(m))
          << "alias=" << alias << " device " << m;
    }
  }
}

TEST(ScaleSimulator, SaveIsNonMutatingAndStable) {
  ScaleSimulator sim(small_config());
  run(sim, 11);
  ckpt::ByteWriter first;
  sim.save_state(first);
  ckpt::ByteWriter second;
  sim.save_state(second);
  EXPECT_EQ(first.data(), second.data());
}

TEST(ScaleSimulator, RejectsForeignAndCorruptSnapshots) {
  ScaleSimulator sim(small_config());
  run(sim, 5);
  ckpt::ByteWriter snapshot;
  sim.save_state(snapshot);

  ScaleConfig other = small_config();
  other.seed = 99;
  ScaleSimulator wrong_config(other);
  ckpt::ByteReader in(snapshot.data());
  EXPECT_THROW(wrong_config.load_state(in), ckpt::CorruptPayload);

  auto truncated = snapshot.data();
  truncated.resize(truncated.size() / 2);
  ScaleSimulator target(small_config());
  ckpt::ByteReader half(truncated);
  EXPECT_THROW(target.load_state(half), ckpt::CorruptPayload);
}

TEST(ScaleSimulator, ParticipantsTrackTheConfiguredFraction) {
  ScaleConfig config = small_config();
  config.participation = 0.05;
  ScaleSimulator sim(config);
  std::size_t total = 0;
  const std::size_t rounds = 20;
  for (std::size_t r = 0; r < rounds; ++r) total += sim.step().participants;
  const double per_round = static_cast<double>(total) / rounds;
  const double expected = config.participation * config.num_devices;
  // Per-edge floors (max(1, ..)) and rounding push the realised rate up a
  // little; it must stay the right order of magnitude, not drift to O(M).
  EXPECT_GT(per_round, 0.5 * expected);
  EXPECT_LT(per_round, 3.0 * expected + config.num_edges);
}

TEST(ScaleSimulator, ExperienceConcentratesOnSampledDevices) {
  ScaleSimulator sim(small_config());
  run(sim, 40);
  std::size_t with_experience = 0;
  for (std::uint32_t m = 0; m < sim.num_devices(); ++m) {
    with_experience += sim.participations(m) > 0 ? 1 : 0;
  }
  EXPECT_GT(with_experience, 0u);
  EXPECT_LT(with_experience, sim.num_devices());  // sublinear touch per round
}

TEST(ScaleSimulator, RebuildsAmortiseGeometrically) {
  ScaleConfig config = small_config();
  config.rebuild_drift = 1e9;  // isolate the geometric schedule
  ScaleSimulator sim(config);
  std::size_t rebuilds = 0;
  const std::size_t rounds = 64;
  for (std::size_t r = 0; r < rounds; ++r) rebuilds += sim.step().weight_rebuilds;
  // Doubling schedule: each edge rebuilds O(log rounds) times, not O(rounds).
  EXPECT_LE(rebuilds, config.num_edges * 8);
  EXPECT_GE(rebuilds, config.num_edges);  // every edge rebuilt at least once
}

/// One ckpt::hash_u64 chain over `rounds` rounds' (movers, participants,
/// weight_rebuilds, sample_digest), then the bits of every device's final
/// estimate and participation count.
std::uint64_t run_digest(const ScaleConfig& config, std::size_t rounds) {
  ScaleSimulator sim(config);
  std::uint64_t h = ckpt::kHashSeed;
  for (std::size_t r = 0; r < rounds; ++r) {
    const ScaleRoundStats s = sim.step();
    h = ckpt::hash_u64(h, s.movers);
    h = ckpt::hash_u64(h, s.participants);
    h = ckpt::hash_u64(h, s.weight_rebuilds);
    h = ckpt::hash_u64(h, s.sample_digest);
  }
  for (std::uint32_t m = 0; m < sim.num_devices(); ++m) {
    h = ckpt::hash_f64(h, sim.estimate(m));
    h = ckpt::hash_u64(h, sim.participations(m));
  }
  return h;
}

TEST(ScaleSimulator, SixtyRoundDigestIsPinned) {
  // Recorded values: a change to Algorithm 2's folds, the Eq. 15 terms, the
  // weight refreshes or the draw order moves them. Both draw modes.
  EXPECT_EQ(run_digest(small_config(), 60), 0x6785917d1855c439ULL);
  ScaleConfig alias = small_config();
  alias.use_alias_draws = true;
  EXPECT_EQ(run_digest(alias, 60), 0xbc2a0790f9647fabULL);
}

TEST(ScaleSimulator, MemoryStaysWithinTheFixedPerDeviceBudget) {
  ScaleConfig config = small_config();
  config.num_devices = 10000;
  config.num_edges = 50;
  ScaleSimulator sim(config);
  run(sim, 30);
  const std::size_t budget =
      ScaleSimulator::bytes_per_device() * config.num_devices +
      config.num_edges * 4096 + (1u << 20);
  EXPECT_LE(sim.memory_bytes(), budget);
  // Edge membership (16 B/device) plus Algorithm 2's estimator (29).
  EXPECT_GT(sim.memory_bytes(), (DeviceStateArrays::bytes_per_device() +
                                 UcbEstimator::bytes_per_device()) *
                                    config.num_devices);
}

TEST(DeviceStateArrays, SaveLoadRoundTripsAndValidates) {
  DeviceStateArrays arrays;
  arrays.reset(5);
  arrays.edge[3] = 2;
  arrays.slot[3] = 9;
  arrays.weight_basis[0] = 2.5;

  ckpt::ByteWriter out;
  arrays.save(out);
  DeviceStateArrays loaded;
  loaded.reset(5);
  ckpt::ByteReader in(out.data());
  loaded.load(in);
  EXPECT_EQ(loaded.edge, arrays.edge);
  EXPECT_EQ(loaded.slot, arrays.slot);
  EXPECT_EQ(loaded.weight_basis, arrays.weight_basis);

  DeviceStateArrays wrong_size;
  wrong_size.reset(4);
  ckpt::ByteReader again(out.data());
  EXPECT_THROW(wrong_size.load(again), ckpt::CorruptPayload);
}

}  // namespace
}  // namespace mach::core
