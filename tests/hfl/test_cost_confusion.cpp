// Communication-cost accounting and confusion-matrix evaluation.
#include <gtest/gtest.h>

#include "core/mach.h"
#include "hfl/experiment.h"
#include "hfl/simulator.h"
#include "sampling/baselines.h"

namespace mach::hfl {
namespace {

ExperimentConfig tiny_config(std::uint64_t seed = 1) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 20;
  config.test_examples = 120;
  config.mlp_hidden = 12;
  config.hfl.local_epochs = 2;
  config.hfl.cloud_interval = 5;
  config.horizon = 20;
  config.num_stations = 8;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

TEST(CommunicationCost, ArithmeticHelpers) {
  CommunicationCost cost;
  cost.ledger.device_download.add(10, 104);
  cost.ledger.device_upload.add(10, 104);
  cost.ledger.retry_upload.add(3, 104);  // already part of device_upload
  cost.ledger.edge_upload.add(4, 104);
  cost.ledger.cloud_broadcast.add(4, 104);
  cost.ledger.probe_download.add(2, 104);
  cost.model_parameters = 100;
  EXPECT_EQ(cost.ledger.total_messages(), 30u);
  EXPECT_EQ(cost.ledger.total_bytes(), 30u * 104u);
  EXPECT_EQ(cost.assumed_fp32_bytes(), 30u * 100u * sizeof(float));

  CommunicationCost other;
  other.ledger.device_download.add(5, 104);
  cost += other;
  EXPECT_EQ(cost.ledger.device_download.messages, 15u);
  // Accumulating into `cost` must not lose its per-message size either.
  EXPECT_EQ(cost.model_parameters, 100u);
}

TEST(CommunicationCost, AccumulationKeepsModelParameters) {
  // Regression: += used to drop model_parameters, so folding a populated
  // cost into a default-constructed accumulator priced its messages at 0
  // fp32 bytes.
  CommunicationCost run;
  run.ledger.device_download.add(10, 1024);
  run.ledger.device_upload.add(10, 1024);
  run.model_parameters = 256;

  CommunicationCost accumulated;
  accumulated += run;
  EXPECT_EQ(accumulated.model_parameters, 256u);
  EXPECT_EQ(accumulated.assumed_fp32_bytes(), 20u * 256u * sizeof(float));

  // A second run of the same model keeps the size and the clean flag.
  CommunicationCost same;
  same.model_parameters = 256;
  accumulated += same;
  EXPECT_EQ(accumulated.model_parameters, 256u);
  EXPECT_FALSE(accumulated.mixed_model_sizes);
}

TEST(CommunicationCost, MixedModelSizesAssertAndSetTheStickyFlag) {
  // Folding two accumulators with different nonzero model sizes makes the
  // fp32 product meaningless: the engine asserts in debug builds (asserts
  // are live in this repo's Release flags too) and records the mix in a
  // sticky flag that trace_summary surfaces.
  CommunicationCost a;
  a.model_parameters = 256;
  CommunicationCost b;
  b.model_parameters = 512;
  EXPECT_DEBUG_DEATH(a += b, "mixed model sizes");

  // With NDEBUG (or after surviving the death-test fork) the fold must keep
  // max() as a lower bound and leave the sticky flag set, and the flag must
  // stay sticky through further clean accumulations.
  CommunicationCost mixed;
  mixed.model_parameters = 256;
  mixed.mixed_model_sizes = true;  // as a surviving NDEBUG fold would leave it
  CommunicationCost more;
  more.model_parameters = 256;
  more.ledger.device_upload.add(3, 1024);
  mixed += more;
  EXPECT_TRUE(mixed.mixed_model_sizes);
  EXPECT_EQ(mixed.model_parameters, 256u);

  // The flag also propagates from the right-hand side.
  CommunicationCost clean;
  clean.model_parameters = 256;
  clean += mixed;
  EXPECT_TRUE(clean.mixed_model_sizes);
}

TEST(CommunicationCost, FullParticipationCountsExactly) {
  const auto config = tiny_config(2);
  auto artifacts = build_experiment(config);
  HflOptions options = config.hfl;
  options.seed = config.seed;
  HflSimulator sim(artifacts.train, artifacts.test, artifacts.partition,
                   artifacts.schedule, make_model_factory(config), options);
  sampling::FullParticipationSampler sampler;
  sim.run(sampler, 20);
  const auto& cost = sim.last_run_cost();
  const comm::ByteLedger& ledger = cost.ledger;
  // Every device participates every step.
  EXPECT_EQ(ledger.device_download.messages, 8u * 20u);
  EXPECT_EQ(ledger.device_upload.messages, 8u * 20u);
  EXPECT_EQ(ledger.retry_upload.messages, 0u);
  EXPECT_EQ(ledger.probe_download.messages, 0u);
  // Cloud rounds at t = 0, 5, 10, 15 -> 4 rounds x 2 edges each direction.
  EXPECT_EQ(ledger.edge_upload.messages, 8u);
  EXPECT_EQ(ledger.cloud_broadcast.messages, 8u);
  EXPECT_GT(cost.model_parameters, 0u);
}

TEST(CommunicationCost, SamplingRespectsExpectedBudget) {
  const auto config = tiny_config(3);
  auto artifacts = build_experiment(config);
  HflOptions options = config.hfl;
  options.seed = config.seed;
  HflSimulator sim(artifacts.train, artifacts.test, artifacts.partition,
                   artifacts.schedule, make_model_factory(config), options);
  sampling::UniformSampler sampler;
  sim.run(sampler, 20);
  const comm::ByteLedger& ledger = sim.last_run_cost().ledger;
  // Expected participants per step = participation * devices = 4; allow
  // generous Monte-Carlo slack around 4 * 20 = 80.
  EXPECT_GT(ledger.device_upload.messages, 40u);
  EXPECT_LT(ledger.device_upload.messages, 120u);
  EXPECT_EQ(ledger.device_upload.messages, ledger.device_download.messages);
}

TEST(CommunicationCost, OracleProbesAreCounted) {
  const auto config = tiny_config(4);
  auto artifacts = build_experiment(config);
  HflOptions options = config.hfl;
  options.seed = config.seed;
  HflSimulator sim(artifacts.train, artifacts.test, artifacts.partition,
                   artifacts.schedule, make_model_factory(config), options);
  core::MachOracleSampler sampler;
  sim.run(sampler, 20);
  // Every device in every edge is probed at every step.
  EXPECT_EQ(sim.last_run_cost().ledger.probe_download.messages, 8u * 20u);
}

TEST(Confusion, BasicCounting) {
  ConfusionMatrix m(3);
  m.add(0, 0);
  m.add(0, 1);
  m.add(1, 1);
  m.add(2, 2);
  EXPECT_EQ(m.total(), 4u);
  EXPECT_EQ(m.count(0, 1), 1u);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(m.recall(0), 0.5);
  EXPECT_DOUBLE_EQ(m.recall(1), 1.0);
  EXPECT_DOUBLE_EQ(m.precision(1), 0.5);
  EXPECT_NEAR(m.balanced_accuracy(), (0.5 + 1.0 + 1.0) / 3.0, 1e-12);
}

TEST(Confusion, Validation) {
  EXPECT_THROW(ConfusionMatrix(0), std::invalid_argument);
  ConfusionMatrix m(2);
  EXPECT_THROW(m.add(2, 0), std::out_of_range);
  EXPECT_THROW(m.add(0, -1), std::out_of_range);
  EXPECT_THROW(m.count(2, 0), std::out_of_range);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);   // empty
  EXPECT_DOUBLE_EQ(m.recall(0), 0.0);    // no examples
  EXPECT_DOUBLE_EQ(m.precision(0), 0.0); // nothing predicted
}

TEST(Confusion, SimulatorEvaluationMatchesEvalAccuracy) {
  const auto config = tiny_config(5);
  auto artifacts = build_experiment(config);
  HflOptions options = config.hfl;
  options.seed = config.seed;
  HflSimulator sim(artifacts.train, artifacts.test, artifacts.partition,
                   artifacts.schedule, make_model_factory(config), options);
  sampling::UniformSampler sampler;
  sim.run(sampler, 10);
  const EvalPoint point = sim.evaluate_global(10);
  const ConfusionMatrix confusion = sim.evaluate_confusion();
  EXPECT_EQ(confusion.total(), 120u);
  EXPECT_NEAR(confusion.accuracy(), point.test_accuracy, 1e-9);
}

}  // namespace
}  // namespace mach::hfl
