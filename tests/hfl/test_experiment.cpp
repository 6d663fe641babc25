#include "hfl/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "core/registry.h"
#include "data/partition.h"

namespace mach::hfl {
namespace {

ExperimentConfig tiny(std::uint64_t seed = 1) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 10;
  config.num_edges = 2;
  config.train_per_device = 25;
  config.test_examples = 100;
  config.mlp_hidden = 12;
  config.hfl.local_epochs = 2;
  config.horizon = 20;
  config.num_stations = 8;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

TEST(ExperimentConfig, SmokePresetsPerTask) {
  const auto mnist = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  EXPECT_EQ(mnist.hfl.cloud_interval, 5u);
  const auto fmnist = ExperimentConfig::smoke(data::TaskKind::FmnistLike);
  // Easier tiers must carry higher accuracy targets.
  EXPECT_GT(mnist.target_accuracy, fmnist.target_accuracy);
  const auto cifar = ExperimentConfig::smoke(data::TaskKind::CifarLike);
  EXPECT_GT(fmnist.target_accuracy, cifar.target_accuracy);
  EXPECT_EQ(cifar.hfl.cloud_interval, 10u);
  EXPECT_EQ(cifar.data_spec.channels, 3u);
}

TEST(ExperimentConfig, FullPresetsUsePaperScale) {
  const auto full = ExperimentConfig::full(data::TaskKind::MnistLike);
  EXPECT_EQ(full.num_devices, 100u);
  EXPECT_EQ(full.num_edges, 10u);
  EXPECT_EQ(full.hfl.local_epochs, 10u);
  EXPECT_EQ(full.model, ModelKind::PaperCnn);
}

TEST(ExperimentConfig, PresetFollowsEnvFlag) {
  ::unsetenv("REPRO_FULL");
  EXPECT_EQ(ExperimentConfig::preset(data::TaskKind::MnistLike).model, ModelKind::Mlp);
  ::setenv("REPRO_FULL", "1", 1);
  EXPECT_EQ(ExperimentConfig::preset(data::TaskKind::MnistLike).model,
            ModelKind::PaperCnn);
  ::unsetenv("REPRO_FULL");
}

TEST(ExperimentConfig, WithSeedPropagates) {
  const auto config = tiny().with_seed(99);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.hfl.seed, 99u);
}

TEST(BuildExperiment, ShapesMatchConfig) {
  auto config = tiny(2);
  config.redundant_fraction = 0.0;  // duplicates off: partition must be exact
  const ExperimentArtifacts artifacts = build_experiment(config);
  EXPECT_EQ(artifacts.train.size(), 250u);
  EXPECT_EQ(artifacts.test.size(), 100u);
  EXPECT_EQ(artifacts.partition.size(), 10u);
  EXPECT_TRUE(data::is_exact_partition(artifacts.partition, artifacts.train.size()));
  EXPECT_EQ(artifacts.schedule.num_devices(), 10u);
  EXPECT_EQ(artifacts.schedule.num_edges(), 2u);
  EXPECT_EQ(artifacts.schedule.horizon(), config.horizon);
}

TEST(BuildExperiment, RedundancyKeepsIndicesValidAndSizes) {
  auto config = tiny(2);
  config.redundant_fraction = 1.0;  // every device collapsed
  const ExperimentArtifacts artifacts = build_experiment(config);
  for (const auto& shard : artifacts.partition) {
    ASSERT_FALSE(shard.empty());
    std::set<std::size_t> unique(shard.begin(), shard.end());
    // keep = 0.08 of 25 examples -> 2 unique indices per device.
    EXPECT_LE(unique.size(), 2u);
    for (auto idx : shard) EXPECT_LT(idx, artifacts.train.size());
  }
}

TEST(BuildExperiment, DeterministicForSeed) {
  const auto config = tiny(3);
  const auto a = build_experiment(config);
  const auto b = build_experiment(config);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.features().numel(); ++i) {
    ASSERT_EQ(a.train.features()[i], b.train.features()[i]);
  }
  for (std::size_t t = 0; t < config.horizon; ++t) {
    for (std::size_t m = 0; m < 10; ++m) {
      ASSERT_EQ(a.schedule.edge_of(t, m), b.schedule.edge_of(t, m));
    }
  }
}

TEST(BuildExperiment, DataSeedChangesDataRunSeedDoesNot) {
  // Changing only the run seed must keep the world identical (the paper
  // repeats runs over fixed datasets and traces)...
  const auto a = build_experiment(tiny(4));
  const auto b = build_experiment(tiny(5));
  ASSERT_EQ(a.train.features().numel(), b.train.features().numel());
  for (std::size_t i = 0; i < a.train.features().numel(); ++i) {
    ASSERT_EQ(a.train.features()[i], b.train.features()[i]);
  }
  // ...while changing the data seed regenerates the concept.
  auto config = tiny(4);
  config.data_seed = 777;
  const auto c = build_experiment(config);
  bool differs = false;
  for (std::size_t i = 0; i < a.train.features().numel() && !differs; ++i) {
    differs = a.train.features()[i] != c.train.features()[i];
  }
  EXPECT_TRUE(differs);
}

TEST(ModelFactoryTest, MlpHandlesImageInput) {
  const auto config = tiny(6);
  auto factory = make_model_factory(config);
  nn::Sequential model = factory();
  common::Rng rng(1);
  model.init_params(rng);
  tensor::Tensor x({2, config.data_spec.channels, config.data_spec.height,
                    config.data_spec.width});
  EXPECT_EQ(model.forward(x).shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(ModelFactoryTest, PaperCnnSelectsDepthByTask) {
  auto config = tiny(7);
  config.model = ModelKind::PaperCnn;
  nn::Sequential cnn2 = make_model_factory(config)();
  EXPECT_EQ(cnn2.num_layers(), 6u);  // conv-relu-pool block x2 + flatten fc relu fc

  auto cifar = ExperimentConfig::smoke(data::TaskKind::CifarLike);
  cifar.model = ModelKind::PaperCnn;
  nn::Sequential cnn3 = make_model_factory(cifar)();
  EXPECT_EQ(cnn3.num_layers(), 7u);  // conv-relu-pool block x3 + flatten fc relu fc
}

TEST(RunExperiment, ProducesMetricsAndName) {
  const auto config = tiny(8);
  auto sampler = core::make_sampler("uniform");
  const RunResult result = run_experiment(config, *sampler);
  EXPECT_EQ(result.sampler_name, "uniform");
  EXPECT_FALSE(result.metrics.empty());
}

TEST(AveragedTimeToTarget, UnreachableTargetCountsHorizon) {
  auto config = tiny(9);
  config.target_accuracy = 1.01;  // impossible
  const std::vector<std::uint64_t> seeds = {1, 2};
  const auto result = averaged_time_to_target(
      config, [] { return core::make_sampler("uniform"); }, seeds);
  EXPECT_DOUBLE_EQ(result.mean_steps, static_cast<double>(config.horizon));
  EXPECT_DOUBLE_EQ(result.reach_rate, 0.0);
  ASSERT_EQ(result.per_seed.size(), 2u);
  EXPECT_FALSE(result.per_seed[0].has_value());
}

TEST(AveragedTimeToTarget, TrivialTargetReachedImmediately) {
  auto config = tiny(10);
  config.target_accuracy = 0.0;  // initial eval already satisfies it
  const std::vector<std::uint64_t> seeds = {3};
  const auto result = averaged_time_to_target(
      config, [] { return core::make_sampler("uniform"); }, seeds);
  EXPECT_DOUBLE_EQ(result.mean_steps, 0.0);
  EXPECT_DOUBLE_EQ(result.reach_rate, 1.0);
}

TEST(AveragedTimeToTarget, EmptySeeds) {
  const auto result = averaged_time_to_target(
      tiny(11), [] { return core::make_sampler("uniform"); }, {});
  EXPECT_DOUBLE_EQ(result.mean_steps, 0.0);
  EXPECT_TRUE(result.per_seed.empty());
}

TEST(AverageCurves, PointwiseMean) {
  MetricsRecorder a, b;
  a.record({.t = 0, .test_accuracy = 0.2, .test_loss = 2.0});
  a.record({.t = 5, .test_accuracy = 0.6, .test_loss = 1.0});
  b.record({.t = 0, .test_accuracy = 0.4, .test_loss = 1.0});
  b.record({.t = 5, .test_accuracy = 0.8, .test_loss = 0.5});
  const auto curve = average_curves({a, b});
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].test_accuracy, 0.3);
  EXPECT_DOUBLE_EQ(curve[1].test_accuracy, 0.7);
  EXPECT_DOUBLE_EQ(curve[1].test_loss, 0.75);
  EXPECT_EQ(curve[1].t, 5u);
}

TEST(AverageCurves, TruncatesToShortestRun) {
  MetricsRecorder a, b;
  a.record({.t = 0, .test_accuracy = 0.2});
  a.record({.t = 5, .test_accuracy = 0.6});
  b.record({.t = 0, .test_accuracy = 0.4});
  const auto curve = average_curves({a, b});
  EXPECT_EQ(curve.size(), 1u);
}

TEST(CurveTimeToTarget, FirstCrossing) {
  std::vector<EvalPoint> curve = {{.t = 0, .test_accuracy = 0.1},
                                  {.t = 5, .test_accuracy = 0.5},
                                  {.t = 10, .test_accuracy = 0.9}};
  EXPECT_EQ(curve_time_to_target(curve, 0.5).value(), 5u);
  EXPECT_EQ(curve_time_to_target(curve, 0.89).value(), 10u);
  EXPECT_FALSE(curve_time_to_target(curve, 0.95).has_value());
}

}  // namespace
}  // namespace mach::hfl
