// Profiler passivity contract: turning --profile/--status on must not change
// the simulation. Replays one scenario with profiling off and on across
// thread counts and asserts bitwise-equal global parameters plus identical
// canonical JSONL traces — and byte-identical raw traces but for run_end, the
// only line with wall time — then checks the exported Chrome trace actually
// covers every round and phase and the heartbeat reached its final state.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "hfl/experiment.h"
#include "hfl/trace_canon.h"
#include "obs/json.h"
#include "obs/jsonl_writer.h"

namespace mach::hfl {
namespace {

using mach::test::canonical_trace;
using mach::test::slurp;

ExperimentConfig profiled_scenario(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 30;
  config.test_examples = 300;  // > kEvalChunk so eval shards across workers
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 2;
  config.hfl.participation = 0.6;
  config.horizon = 8;
  config.num_stations = 6;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

struct ProfiledRun {
  std::vector<float> params;
  std::vector<std::string> trace;
  std::string raw_trace;
};

ProfiledRun run_scenario(const ExperimentArtifacts& artifacts,
                         const ExperimentConfig& config, std::size_t threads,
                         const obs::ProfileOptions& profile,
                         bool* profiler_active = nullptr) {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.parallel.threads = threads;
  options.profile = profile;
  HflSimulator simulator(artifacts.train, artifacts.test, artifacts.partition,
                         artifacts.schedule, make_model_factory(config),
                         options);

  std::ostringstream trace_stream;
  obs::JsonlTraceOptions trace_options;
  trace_options.device_events = true;
  obs::JsonlTraceWriter trace(trace_stream, trace_options);
  simulator.set_observer(&trace);

  auto sampler = core::make_sampler("mach");
  simulator.run(*sampler, config.horizon);
  if (profiler_active != nullptr) {
    *profiler_active = simulator.span_profiler() != nullptr;
  }

  ProfiledRun result;
  result.params = simulator.global_parameters();
  simulator.set_observer(nullptr);
  result.raw_trace = trace_stream.str();
  result.trace = canonical_trace(result.raw_trace);
  return result;
}

TEST(ProfilerIntegration, ProfilingOffLeavesTheProfilerUnbuilt) {
  const ExperimentConfig config = profiled_scenario(51);
  const ExperimentArtifacts artifacts = build_experiment(config);
  bool active = true;
  run_scenario(artifacts, config, 1, obs::ProfileOptions{}, &active);
  EXPECT_FALSE(active) << "spans-off runs must not even allocate a profiler";
}

TEST(ProfilerIntegration, ProfilingOnIsPassiveAtEveryThreadCount) {
  const ExperimentConfig config = profiled_scenario(52);
  const ExperimentArtifacts artifacts = build_experiment(config);

  const ProfiledRun reference =
      run_scenario(artifacts, config, 1, obs::ProfileOptions{});
  ASSERT_FALSE(reference.params.empty());
  ASSERT_GE(reference.trace.size(), 4u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::ProfileOptions profile;
    profile.trace_path = ::testing::TempDir() + "profiler_integration_" +
                         std::to_string(threads) + ".json";
    profile.status_path = ::testing::TempDir() + "profiler_integration_" +
                          std::to_string(threads) + "_status.json";
    bool active = false;
    const ProfiledRun profiled =
        run_scenario(artifacts, config, threads, profile, &active);
    EXPECT_TRUE(active);

    // The simulation itself is bitwise unchanged by profiling.
    EXPECT_EQ(profiled.params, reference.params);
    ASSERT_EQ(profiled.trace.size(), reference.trace.size());
    for (std::size_t i = 0; i < reference.trace.size(); ++i) {
      EXPECT_EQ(profiled.trace[i], reference.trace[i]) << "event " << i;
    }

    std::remove(profile.trace_path.c_str());
    std::remove(profile.status_path.c_str());
  }
}

TEST(ProfilerIntegration, RawTraceIsByteIdenticalButForRunEnd) {
  const ExperimentConfig config = profiled_scenario(54);
  const ExperimentArtifacts artifacts = build_experiment(config);
  // The raw lines, run_end dropped (its phase totals are wall time).
  const auto lines_but_run_end = [](const std::string& trace) {
    std::vector<std::string> lines;
    std::size_t run_ends = 0;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(R"({"event":"run_end")", 0) == 0) {
        ++run_ends;
      } else {
        lines.push_back(line);
      }
    }
    EXPECT_EQ(run_ends, 1u);
    return lines;
  };

  const std::vector<std::string> reference = lines_but_run_end(
      run_scenario(artifacts, config, 1, obs::ProfileOptions{}).raw_trace);
  std::size_t device_lines = 0;
  for (const std::string& line : reference) {
    if (line.rfind(R"({"event":"device")", 0) == 0) ++device_lines;
  }
  ASSERT_GT(device_lines, 0u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const bool profiled : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (profiled ? " profiled" : ""));
      obs::ProfileOptions profile;
      if (profiled) {
        profile.trace_path = ::testing::TempDir() + "profiler_raw_" +
                             std::to_string(threads) + ".json";
      }
      const std::vector<std::string> lines = lines_but_run_end(
          run_scenario(artifacts, config, threads, profile).raw_trace);
      ASSERT_EQ(lines.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(lines[i], reference[i]) << "line " << i;
      }
      if (profiled) std::remove(profile.trace_path.c_str());
    }
  }
}

TEST(ProfilerIntegration, ExportCoversEveryRoundAndPhase) {
  const ExperimentConfig config = profiled_scenario(53);
  const ExperimentArtifacts artifacts = build_experiment(config);

  obs::ProfileOptions profile;
  profile.trace_path = ::testing::TempDir() + "profiler_coverage.json";
  profile.status_path = ::testing::TempDir() + "profiler_coverage_status.json";
  run_scenario(artifacts, config, 2, profile);

  std::string error;
  const auto parsed = obs::parse_json(slurp(profile.trace_path), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::JsonValue& doc = *parsed;
  EXPECT_EQ(doc["otherData"].number_or("spans_dropped", -1), 0.0);
  EXPECT_EQ(doc["otherData"].number_or("tracks", 0), 3.0);  // coord + 2 slots

  ASSERT_TRUE(doc["traceEvents"].is_array());
  std::map<std::string, std::size_t> spans;
  std::map<std::string, std::map<std::int64_t, std::size_t>> steps_covered;
  for (const obs::JsonValue& event : doc["traceEvents"].as_array()) {
    if (event.string_or("ph", "") != "X") continue;
    const std::string name = event.string_or("name", "?");
    ++spans[name];
    const double t = event["args"].number_or("t", -1);
    if (t >= 0) ++steps_covered[name][static_cast<std::int64_t>(t)];
  }

  // One top-level span per simulated round, covering every step.
  EXPECT_EQ(spans["round"], config.horizon);
  EXPECT_EQ(steps_covered["round"].size(), config.horizon);
  // Per-round phases: at least one span per round (edge phases run once per
  // participating edge per round, training once per sampled device).
  for (const char* phase :
       {"edge_round", "sampler_decision", "edge_reduce", "device_train",
        "local_sgd", "mach_weights"}) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(steps_covered[phase].size(), config.horizon);
    EXPECT_GE(spans[phase], config.horizon);
  }
  // The sampling water-filling span sits below the decision span (no step
  // tag of its own — it runs once per decision).
  EXPECT_GE(spans["waterfill"], spans["sampler_decision"]);
  // Cloud-round phases fire on the T_g grid only.
  EXPECT_GE(spans["cloud_aggregate"], 1u);
  EXPECT_GE(spans["sampler_refresh"], 1u);
  EXPECT_GE(spans["evaluation"], 1u);

  // The heartbeat reached its final state.
  const auto status = obs::parse_json(slurp(profile.status_path), &error);
  ASSERT_TRUE(status.has_value()) << error;
  EXPECT_EQ(status->string_or("kind", ""), "mach_status");
  EXPECT_TRUE((*status)["finished"].as_bool());
  EXPECT_EQ(status->number_or("step", 0),
            static_cast<double>(config.horizon));
  EXPECT_GT(status->number_or("devices_trained", 0), 0.0);
  EXPECT_GT(status->number_or("sequence", 0), 0.0);

  std::remove(profile.trace_path.c_str());
  std::remove(profile.status_path.c_str());
}

}  // namespace
}  // namespace mach::hfl
