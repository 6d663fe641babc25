// The fault layer's two determinism contracts, end to end through the
// engine:
//   1. with a FaultSchedule active, the same schedule + seed produces
//      bitwise-identical runs at 1/2/4 worker threads — final parameters,
//      metrics CSV, fault counters and the whole canonicalised trace;
//   2. with an all-zero schedule, every artifact is bitwise identical to a
//      run that never touched the fault layer at all.
// Plus the cloud fold's all-lost round, which keeps the global model.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/registry.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "hfl/trace_canon.h"
#include "obs/jsonl_writer.h"

namespace mach::hfl {
namespace {

using mach::test::canonical_trace;
using mach::test::slurp;

ExperimentConfig fault_scenario(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 30;
  config.test_examples = 300;  // > one eval chunk so evaluation shards
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 2;
  config.hfl.participation = 0.6;
  config.horizon = 8;
  config.num_stations = 6;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

fault::FaultSchedule busy_schedule() {
  return fault::FaultSchedule::parse(
      "dropout:p=0.25;straggler:p=0.3,delay=1.5,timeout=1,backoff=0.5,"
      "retries=2;edge_timeout:edge=1,timeout=0.5;"
      "edge_outage:edge=0,from=2,to=4;cloud_loss:p=0.3;seed=77");
}

struct RunArtifacts {
  std::vector<float> params;
  std::string csv;
  std::vector<std::string> trace;
};

RunArtifacts run_with(const ExperimentArtifacts& artifacts,
                      const ExperimentConfig& config,
                      const fault::FaultSchedule& faults, std::size_t threads,
                      const std::string& sampler_name = "mach") {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.parallel.threads = threads;
  options.faults = faults;
  HflSimulator simulator(artifacts.train, artifacts.test, artifacts.partition,
                         artifacts.schedule, make_model_factory(config),
                         options);

  std::ostringstream trace_stream;
  obs::JsonlTraceOptions trace_options;
  trace_options.device_events = true;
  obs::JsonlTraceWriter trace(trace_stream, trace_options);
  simulator.set_observer(&trace);

  auto sampler = core::make_sampler(sampler_name);
  const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);

  RunArtifacts result;
  result.params = simulator.global_parameters();
  // Unique per process: ctest runs this suite's tests concurrently.
  const std::string csv_path = ::testing::TempDir() + "fault_determinism_" +
                               std::to_string(threads) + "_" +
                               std::to_string(::getpid()) + ".csv";
  EXPECT_TRUE(metrics.write_csv(csv_path));
  result.csv = slurp(csv_path);
  std::remove(csv_path.c_str());
  simulator.set_observer(nullptr);
  result.trace = canonical_trace(trace_stream.str());
  return result;
}

TEST(FaultDeterminism, SameScheduleReplaysAtAnyThreadCount) {
  const ExperimentConfig config = fault_scenario(51);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const fault::FaultSchedule schedule = busy_schedule();

  const RunArtifacts serial = run_with(artifacts, config, schedule, 1);
  ASSERT_FALSE(serial.params.empty());
  ASSERT_GE(serial.trace.size(), 4u);

  // The schedule actually fired: some trace line carries a fault payload.
  bool fault_payload_seen = false;
  for (const std::string& event : serial.trace) {
    if (event.find("\"faults\":{") != std::string::npos) {
      fault_payload_seen = true;
      break;
    }
  }
  ASSERT_TRUE(fault_payload_seen) << "schedule never fired; test is vacuous";

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunArtifacts parallel = run_with(artifacts, config, schedule, threads);
    EXPECT_EQ(parallel.params, serial.params);  // element-exact, no tolerance
    EXPECT_EQ(parallel.csv, serial.csv);
    ASSERT_EQ(parallel.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(parallel.trace[i], serial.trace[i]) << "event " << i;
    }
  }
}

TEST(FaultDeterminism, AllZeroScheduleIsBitwiseIdentity) {
  const ExperimentConfig config = fault_scenario(52);
  const ExperimentArtifacts artifacts = build_experiment(config);

  // Fault layer never constructed (the default HflOptions).
  const RunArtifacts plain =
      run_with(artifacts, config, fault::FaultSchedule{}, 1);

  // Fault layer constructed from a non-trivial but *inert* schedule: knobs
  // set, nothing can ever fire. Must take the identical code path — same
  // bytes in every artifact, including the run_end metrics snapshot (no
  // fault counters may appear).
  fault::FaultSchedule inert;
  inert.straggler.delay_mean = 42.0;     // inactive: p == 0
  inert.edge_timeouts.push_back({1, 0.5});  // inert without stragglers
  ASSERT_TRUE(inert.empty());
  const RunArtifacts gated = run_with(artifacts, config, inert, 1);

  EXPECT_EQ(gated.params, plain.params);
  EXPECT_EQ(gated.csv, plain.csv);
  ASSERT_EQ(gated.trace.size(), plain.trace.size());
  for (std::size_t i = 0; i < plain.trace.size(); ++i) {
    EXPECT_EQ(gated.trace[i], plain.trace[i]) << "event " << i;
  }
  for (const std::string& event : plain.trace) {
    EXPECT_EQ(event.find("fault"), std::string::npos)
        << "fault-free trace leaked a fault field: " << event;
  }
}

TEST(FaultDeterminism, FaultSeedChangesOnlyTheFaultHistory) {
  // Two schedules differing only in their pinned fault seed must sample the
  // same devices (the engine Bernoulli stream is untouched) while realising
  // different fault histories. Uniform sampler: its probabilities don't
  // adapt to the observed training, so the sampled sets stay comparable.
  const ExperimentConfig config = fault_scenario(53);
  const ExperimentArtifacts artifacts = build_experiment(config);
  fault::FaultSchedule a = fault::FaultSchedule::parse("dropout:p=0.4;seed=1");
  fault::FaultSchedule b = fault::FaultSchedule::parse("dropout:p=0.4;seed=2");

  const RunArtifacts run_a = run_with(artifacts, config, a, 1, "uniform");
  const RunArtifacts run_b = run_with(artifacts, config, b, 1, "uniform");

  // Same sampling decisions: every edge_agg line reports the same
  // num_sampled sequence...
  std::vector<std::string> sampled_a, sampled_b;
  const auto collect = [](const std::vector<std::string>& trace,
                          std::vector<std::string>& out) {
    for (const std::string& event : trace) {
      const std::size_t pos = event.find("\"num_sampled\":");
      if (pos != std::string::npos) {
        out.push_back(event.substr(pos, event.find(',', pos) - pos));
      }
    }
  };
  collect(run_a.trace, sampled_a);
  collect(run_b.trace, sampled_b);
  EXPECT_EQ(sampled_a, sampled_b);
  // ...while the realised runs differ (different survivors -> different
  // parameters).
  EXPECT_NE(run_a.params, run_b.params);
}

TEST(FaultDeterminism, EveryCloudUploadLostKeepsTheGlobalModel) {
  // With every edge upload lost, each cloud round keeps w^t: the fold never
  // touches the global model, so it ends the run as initialised, while each
  // cloud round counts one lost upload per edge with devices.
  const ExperimentConfig config = fault_scenario(54);
  const ExperimentArtifacts artifacts = build_experiment(config);
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.faults = fault::FaultSchedule::parse("cloud_loss:p=1");
  HflSimulator simulator(artifacts.train, artifacts.test, artifacts.partition,
                         artifacts.schedule, make_model_factory(config),
                         options);
  const std::vector<float> initial = simulator.global_parameters();
  auto sampler = core::make_sampler("mach");
  simulator.run(*sampler, config.horizon);
  EXPECT_EQ(simulator.global_parameters(), initial);

  std::uint64_t expected_lost = 0;
  std::size_t cloud_rounds = 0;
  for (std::size_t t = 0; t < config.horizon; t += config.hfl.cloud_interval) {
    ++cloud_rounds;
    for (const auto& devices : artifacts.schedule.devices_per_edge(t)) {
      if (!devices.empty()) ++expected_lost;
    }
  }
  ASSERT_GT(cloud_rounds, 1u);
  std::uint64_t lost = 0, trained = 0;
  for (const auto& entry : simulator.metrics_registry().snapshot().counters) {
    if (entry.name == "fault_cloud_uploads_lost") lost = entry.value;
    if (entry.name == "devices_trained") trained = entry.value;
  }
  EXPECT_EQ(lost, expected_lost);
  // Not vacuous: the edges trained, and without the loss the model moves.
  EXPECT_GT(trained, 0u);
  EXPECT_NE(run_with(artifacts, config, fault::FaultSchedule{}, 1).params,
            initial);
}

}  // namespace
}  // namespace mach::hfl
