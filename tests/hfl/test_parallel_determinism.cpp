// The runtime subsystem's core promise: a run is bitwise identical at any
// thread count. Replays the fig3-style 2-edge/8-device scenario, and a
// faulted int8 world that trains several sections per step, serially and
// with 2 and 4 workers and asserts equal global parameters, metrics CSVs,
// confusion matrices and JSONL trace event sequences (timing fields
// stripped — wall-clock is the only thing allowed to differ).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/registry.h"
#include "hfl/experiment.h"
#include "hfl/flush_world.h"
#include "hfl/trace_canon.h"
#include "obs/jsonl_writer.h"

namespace mach::hfl {
namespace {

ExperimentConfig parallel_scenario(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 30;
  // > 256 test examples so the chunked evaluation paths actually shard
  // across workers (kEvalChunk = 256).
  config.test_examples = 300;
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 2;
  config.hfl.participation = 0.6;
  config.horizon = 8;
  config.num_stations = 6;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

// Canonicalisation (sorted keys, timing fields dropped) lives in
// tests/hfl/trace_canon.h, shared with the fault and golden-trace suites.
using mach::test::canonical_trace;
using mach::test::slurp;

struct RunArtifacts {
  std::vector<float> params;
  std::string csv;
  std::vector<std::string> trace;
  std::vector<std::size_t> confusion;
};

RunArtifacts run_with_threads(const ExperimentArtifacts& artifacts,
                              const ExperimentConfig& config,
                              std::size_t threads,
                              const std::string& sampler_name = "mach") {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.parallel.threads = threads;
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
  const std::string csv_path = ::testing::TempDir() + "parallel_determinism_" +
                               std::to_string(threads) + "_" +
                               std::to_string(::getpid()) + ".csv";
  EXPECT_TRUE(metrics.write_csv(csv_path));
  result.csv = slurp(csv_path);
  std::remove(csv_path.c_str());

  const ConfusionMatrix confusion = simulator.evaluate_confusion();
  for (std::size_t t = 0; t < confusion.num_classes(); ++t) {
    for (std::size_t p = 0; p < confusion.num_classes(); ++p) {
      result.confusion.push_back(confusion.count(t, p));
    }
  }

  simulator.set_observer(nullptr);  // flush order: trace dies before simulator
  result.trace = canonical_trace(trace_stream.str());
  return result;
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeTheRun) {
  // The multi-flush world under mach, which reads only its own edge's
  // experience, and under statistical and oort, which pool every edge's
  // observations: where a step's training sections fall must not matter.
  struct Input {
    std::string world;
    ExperimentConfig config;
    std::string sampler;
  };
  const std::vector<Input> inputs = {
      {"fig3", parallel_scenario(47), "mach"},
      {"multi_flush", test::multi_flush_world(47), "mach"},
      {"multi_flush", test::multi_flush_world(47), "statistical"},
      {"multi_flush", test::multi_flush_world(47), "oort"}};
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.world + "/" + input.sampler);
    const ExperimentArtifacts artifacts = build_experiment(input.config);
    const RunArtifacts serial =
        run_with_threads(artifacts, input.config, 1, input.sampler);
    ASSERT_FALSE(serial.params.empty());
    ASSERT_FALSE(serial.csv.empty());
    ASSERT_GE(serial.trace.size(), 4u);  // run_begin, steps, ..., run_end

    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const RunArtifacts parallel =
          run_with_threads(artifacts, input.config, threads, input.sampler);
      // Bitwise: float vectors compared element-exact, no tolerance.
      EXPECT_EQ(parallel.params, serial.params);
      EXPECT_EQ(parallel.csv, serial.csv);
      EXPECT_EQ(parallel.confusion, serial.confusion);
      ASSERT_EQ(parallel.trace.size(), serial.trace.size());
      for (std::size_t i = 0; i < serial.trace.size(); ++i) {
        EXPECT_EQ(parallel.trace[i], serial.trace[i]) << "event " << i;
      }
    }
  }
}

TEST(ParallelDeterminism, OracleProbesBatchOnTheCoordinatorWhileWorkersTrain) {
  // MACH-P: every edge round probes each present device on the
  // coordinator's model (its norms batched and flushed before the sampler
  // reads them), then trains the sampled devices on the workers, each
  // worker slot batching its own local steps' norms. Same bits at 1, 2 and
  // 4 threads, down to the per-device gradient norms in the trace.
  const ExperimentConfig config = parallel_scenario(49);
  const ExperimentArtifacts artifacts = build_experiment(config);
  const RunArtifacts serial = run_with_threads(artifacts, config, 1, "mach_p");
  ASSERT_FALSE(serial.params.empty());
  ASSERT_GE(serial.trace.size(), 4u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunArtifacts parallel =
        run_with_threads(artifacts, config, threads, "mach_p");
    EXPECT_EQ(parallel.params, serial.params);
    EXPECT_EQ(parallel.csv, serial.csv);
    EXPECT_EQ(parallel.confusion, serial.confusion);
    EXPECT_EQ(parallel.trace, serial.trace);
  }
}

TEST(ParallelDeterminism, RunExperimentHonoursTheThreadKnob) {
  // The high-level driver path (used by benches and the CLI) must inherit
  // the same guarantee end to end.
  ExperimentConfig config = parallel_scenario(48);
  config.horizon = 5;

  auto run_with = [&](std::size_t threads) {
    ExperimentConfig c = config;
    c.hfl.parallel.threads = threads;
    auto sampler = core::make_sampler("uniform");
    return run_experiment(c, *sampler);
  };

  const RunResult serial = run_with(1);
  const RunResult threaded = run_with(3);
  ASSERT_EQ(serial.metrics.points().size(), threaded.metrics.points().size());
  for (std::size_t i = 0; i < serial.metrics.points().size(); ++i) {
    const EvalPoint& a = serial.metrics.points()[i];
    const EvalPoint& b = threaded.metrics.points()[i];
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_EQ(a.test_loss, b.test_loss);
    EXPECT_EQ(a.train_loss, b.train_loss);
    EXPECT_EQ(a.participants, b.participants);
  }
}

}  // namespace
}  // namespace mach::hfl
