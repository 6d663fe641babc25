// End-to-end telemetry smoke tests: a small 2-edge/8-device simulator run
// with a JsonlTraceWriter attached must stream a parseable trace whose
// bookkeeping is internally consistent (per-step events, expected-budget
// feasibility sum(q) <= K_n per edge, device lines matching edge counts),
// and attaching an observer must not perturb the run at all.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "hfl/simulator.h"
#include "obs/json.h"
#include "obs/jsonl_writer.h"
#include "sampling/baselines.h"

namespace mach::hfl {
namespace {

constexpr std::size_t kSteps = 20;

ExperimentConfig tiny_config(std::uint64_t seed = 11) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 20;
  config.test_examples = 120;
  config.mlp_hidden = 12;
  config.hfl.local_epochs = 2;
  config.hfl.cloud_interval = 5;
  config.horizon = kSteps;
  config.num_stations = 8;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

HflSimulator make_simulator(const ExperimentConfig& config,
                            const ExperimentArtifacts& artifacts) {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  return HflSimulator(artifacts.train, artifacts.test, artifacts.partition,
                      artifacts.schedule, make_model_factory(config), options);
}

std::vector<obs::JsonValue> parse_trace(const std::string& text) {
  std::vector<obs::JsonValue> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    auto value = obs::parse_json(line, &error);
    EXPECT_TRUE(value.has_value()) << error << " in line: " << line;
    if (value) events.push_back(std::move(*value));
  }
  return events;
}

std::size_t count_events(const std::vector<obs::JsonValue>& events,
                         std::string_view kind) {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.string_or("event", "") == kind) ++n;
  }
  return n;
}

TEST(TraceE2E, MachRunProducesConsistentTrace) {
  const auto config = tiny_config(11);
  auto artifacts = build_experiment(config);
  auto simulator = make_simulator(config, artifacts);
  auto sampler = core::make_sampler("mach");

  std::ostringstream out;
  obs::JsonlTraceWriter trace(out);
  simulator.set_observer(&trace);
  simulator.run(*sampler, kSteps);
  simulator.set_observer(nullptr);

  const auto events = parse_trace(out.str());
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size(), trace.lines_written());

  // Delimiters and the per-step skeleton.
  EXPECT_EQ(count_events(events, "run_begin"), 1u);
  EXPECT_EQ(count_events(events, "run_end"), 1u);
  EXPECT_EQ(count_events(events, "step"), kSteps);
  EXPECT_GE(count_events(events, "eval"), 1u);
  EXPECT_GT(count_events(events, "edge_agg"), 0u);

  const obs::JsonValue& begin = events.front();
  EXPECT_EQ(begin.string_or("event", ""), "run_begin");
  EXPECT_EQ(begin.string_or("sampler", ""), "mach");
  EXPECT_DOUBLE_EQ(begin["num_devices"].as_number(), 8.0);
  EXPECT_DOUBLE_EQ(begin["num_edges"].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(begin["steps"].as_number(), static_cast<double>(kSteps));

  const obs::JsonValue& end = events.back();
  EXPECT_EQ(end.string_or("event", ""), "run_end");
  EXPECT_DOUBLE_EQ(end["steps"].as_number(), static_cast<double>(kSteps));
  EXPECT_EQ(static_cast<std::size_t>(end["cloud_rounds"].as_number()),
            count_events(events, "cloud_round"));
  // The registry and phase breakdown ride along on run_end.
  EXPECT_GT(end["metrics"]["counters"]["devices_trained"].as_number(), 0.0);
  EXPECT_GT(end["phases"]["device_training"]["count"].as_number(), 0.0);
  EXPECT_GT(end["phases"]["evaluation"]["total_s"].as_number(), 0.0);

  // Per-edge bookkeeping: expected participants never exceed the channel
  // budget K_n (floor clamping may push the sum marginally above the
  // renormalised budget, by at most floor per present device).
  const double floor = kMinProbability;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> sampled_by_step_edge;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> device_lines;
  for (const auto& e : events) {
    const std::string kind = e.string_or("event", "");
    if (kind == "edge_agg") {
      const auto t = static_cast<std::size_t>(e["t"].as_number());
      const auto edge = static_cast<std::size_t>(e["edge"].as_number());
      const double capacity = e["capacity"].as_number();
      const auto num_devices = static_cast<std::size_t>(e["num_devices"].as_number());
      const auto num_sampled = static_cast<std::size_t>(e["num_sampled"].as_number());
      EXPECT_GT(capacity, 0.0);
      EXPECT_LE(num_sampled, num_devices);
      const obs::JsonValue& q = e["q"];
      EXPECT_EQ(static_cast<std::size_t>(q["count"].as_number()), num_devices);
      if (num_devices > 0) {
        EXPECT_GE(q["min"].as_number(), floor);
        EXPECT_LE(q["max"].as_number(), 1.0);
        EXPECT_LE(q["sum"].as_number(),
                  capacity + floor * static_cast<double>(num_devices) + 1e-9);
      }
      if (num_sampled > 0) {
        // HT weights sum to 1 in expectation; any realisation is finite and
        // positive, and its variance is a number (the §III-B.2 diagnostic).
        EXPECT_GT(e["ht_weight_sum"].as_number(), 0.0);
        EXPECT_GE(e["ht_weight_variance"].as_number(), 0.0);
      }
      sampled_by_step_edge[{t, edge}] = num_sampled;
    } else if (kind == "device") {
      const auto t = static_cast<std::size_t>(e["t"].as_number());
      const auto edge = static_cast<std::size_t>(e["edge"].as_number());
      EXPECT_LT(edge, 2u);
      EXPECT_GE(e["q"].as_number(), floor);
      EXPECT_LE(e["q"].as_number(), 1.0);
      ++device_lines[{t, edge}];
    } else if (kind == "eval") {
      EXPECT_GE(e["test_accuracy"].as_number(), 0.0);
      EXPECT_LE(e["test_accuracy"].as_number(), 1.0);
    }
  }
  // Every device line belongs to an edge aggregation that counted it.
  for (const auto& [key, lines] : device_lines) {
    ASSERT_TRUE(sampled_by_step_edge.count(key))
        << "device line without edge_agg at t=" << key.first;
    EXPECT_EQ(lines, sampled_by_step_edge[key]);
  }
  // And the realised draws match: sum over edges of num_sampled == devices.
  std::size_t total_sampled = 0;
  for (const auto& [key, n] : sampled_by_step_edge) total_sampled += n;
  std::size_t total_device_lines = 0;
  for (const auto& [key, n] : device_lines) total_device_lines += n;
  EXPECT_EQ(total_sampled, total_device_lines);

  // MACH supports introspection: cloud rounds after the first carry the
  // refreshed UCB experience for all 8 devices.
  bool saw_introspection = false;
  for (const auto& e : events) {
    if (e.string_or("event", "") != "cloud_round") continue;
    if (e["g_squared"].is_array()) {
      saw_introspection = true;
      EXPECT_EQ(e["g_squared"].as_array().size(), 8u);
      EXPECT_EQ(e["participations"].as_array().size(), 8u);
      EXPECT_EQ(static_cast<std::size_t>(e["g_squared_summary"]["count"].as_number()),
                8u);
    }
  }
  EXPECT_TRUE(saw_introspection);
}

TEST(TraceE2E, OptionsSuppressChattyEventClasses) {
  const auto config = tiny_config(12);
  auto artifacts = build_experiment(config);
  auto simulator = make_simulator(config, artifacts);
  sampling::UniformSampler sampler;

  std::ostringstream out;
  obs::JsonlTraceOptions options;
  options.device_events = false;
  options.step_events = false;
  obs::JsonlTraceWriter trace(out, options);
  simulator.set_observer(&trace);
  simulator.run(sampler, kSteps);

  const auto events = parse_trace(out.str());
  EXPECT_EQ(count_events(events, "device"), 0u);
  EXPECT_EQ(count_events(events, "step"), 0u);
  EXPECT_EQ(count_events(events, "run_begin"), 1u);
  EXPECT_GT(count_events(events, "edge_agg"), 0u);
  EXPECT_EQ(count_events(events, "run_end"), 1u);
  // Uniform sampling has no UCB state to introspect.
  for (const auto& e : events) {
    if (e.string_or("event", "") == "cloud_round") {
      EXPECT_TRUE(e["g_squared"].is_null());
      EXPECT_TRUE(e["g_squared_summary"].is_null());
    }
  }
}

TEST(TraceE2E, ObserverAttachmentDoesNotPerturbTheRun) {
  const auto config = tiny_config(13);
  auto artifacts = build_experiment(config);

  auto plain_sim = make_simulator(config, artifacts);
  auto plain_sampler = core::make_sampler("mach");
  const MetricsRecorder plain = plain_sim.run(*plain_sampler, kSteps);

  auto traced_sim = make_simulator(config, artifacts);
  auto traced_sampler = core::make_sampler("mach");
  std::ostringstream out;
  obs::JsonlTraceWriter trace(out);
  traced_sim.set_observer(&trace);
  const MetricsRecorder traced = traced_sim.run(*traced_sampler, kSteps);

  // Bit-identical trajectories: telemetry must not touch the RNG stream or
  // any aggregation arithmetic.
  ASSERT_EQ(plain.points().size(), traced.points().size());
  for (std::size_t i = 0; i < plain.points().size(); ++i) {
    EXPECT_EQ(plain.points()[i].t, traced.points()[i].t);
    EXPECT_EQ(plain.points()[i].test_accuracy, traced.points()[i].test_accuracy);
    EXPECT_EQ(plain.points()[i].test_loss, traced.points()[i].test_loss);
    EXPECT_EQ(plain.points()[i].train_loss, traced.points()[i].train_loss);
    EXPECT_EQ(plain.points()[i].participants, traced.points()[i].participants);
  }
  EXPECT_EQ(plain_sim.last_run_cost().ledger, traced_sim.last_run_cost().ledger);
  // The traced run really did trace.
  EXPECT_GT(trace.lines_written(), 0u);
}

TEST(TraceE2E, PhaseTimersAndRegistryRecordedWithoutObserver) {
  const auto config = tiny_config(14);
  auto artifacts = build_experiment(config);
  auto simulator = make_simulator(config, artifacts);
  sampling::UniformSampler sampler;
  simulator.run(sampler, kSteps);

  // Telemetry accumulates even with no observer attached: the phase timers
  // and counters back the --phase_times output of experiment_runner.
  const obs::PhaseTimerSet& timers = simulator.phase_timers();
  EXPECT_GT(timers[obs::Phase::DeviceTraining].count, 0u);
  EXPECT_GT(timers[obs::Phase::Evaluation].count, 0u);
  EXPECT_GT(timers.total_seconds(), 0.0);

  const obs::MetricsSnapshot snap = simulator.metrics_registry().snapshot();
  bool saw_trained = false;
  for (const auto& entry : snap.counters) {
    if (entry.name == "devices_trained") {
      saw_trained = true;
      EXPECT_GT(entry.value, 0u);
    }
  }
  EXPECT_TRUE(saw_trained);
}

TEST(TraceE2E, PhaseScopeCountsMatchTheEngineCounters) {
  auto config = tiny_config(15);
  config.hfl.faults = fault::FaultSchedule::parse(
      "dropout:p=0.2;edge_outage:edge=1,from=3,to=6;seed=4");
  auto artifacts = build_experiment(config);
  auto simulator = make_simulator(config, artifacts);
  auto sampler = core::make_sampler("mach");
  std::ostringstream out;
  obs::JsonlTraceWriter trace(out);
  simulator.set_observer(&trace);
  simulator.run(*sampler, kSteps);

  const obs::JsonValue* run_end = nullptr;
  const auto events = parse_trace(out.str());
  for (const auto& e : events) {
    if (e.string_or("event", "") == "run_end") run_end = &e;
  }
  ASSERT_NE(run_end, nullptr);
  const obs::JsonValue& counters = (*run_end)["metrics"]["counters"];
  const obs::JsonValue& phases = (*run_end)["phases"];
  const auto count = [](const obs::JsonValue& value) {
    return static_cast<std::uint64_t>(value.as_number());
  };
  const std::uint64_t cloud_rounds = count((*run_end)["cloud_rounds"]);
  EXPECT_EQ(cloud_rounds, count_events(events, "cloud_round"));
  ASSERT_GT(count(counters["fault_dropouts"]), 0u);
  ASSERT_GT(count(counters["fault_edge_outage_rounds"]), 0u);

  // One thread: one DeviceTraining scope (train_section) per edge round
  // that trained a device (a one-worker engine flushes after every edge, and
  // a flush without arrivals runs no section), one EdgeAggregation scope per
  // edge round that ran (outages run none), and one SamplerDecision scope
  // per such edge round and per UCB refresh.
  EXPECT_EQ(count(phases["device_training"]["count"]),
            count(counters["edge_aggregations"]) -
                count(counters["edge_rounds_no_participant"]));
  EXPECT_EQ(count(phases["edge_aggregation"]["count"]),
            count(counters["edge_aggregations"]));
  EXPECT_EQ(count(phases["sampler_decision"]["count"]),
            count(counters["edge_aggregations"]) + cloud_rounds);
  EXPECT_EQ(count(phases["cloud_aggregation"]["count"]), cloud_rounds);
  EXPECT_EQ(count(phases["evaluation"]["count"]),
            count(counters["evaluations"]));
}

TEST(TraceE2E, ResumeWriterTruncatesOnlyAtItsFirstLine) {
  const std::string path = ::testing::TempDir() + "resume_writer_" +
                           std::to_string(::getpid()) + ".jsonl";
  const auto slurp = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string prefix = "{\"event\":\"step\",\"t\":0}\n";
  const std::string tail = "{\"event\":\"step\",\"t\":1}\n";
  std::ofstream(path, std::ios::binary) << prefix << tail;
  const obs::TraceCursor cursor{prefix.size(), 1};

  // A writer destroyed before any event (the engine rejected the snapshot)
  // leaves the file as it was.
  { const obs::JsonlTraceWriter writer(path, cursor); }
  EXPECT_EQ(slurp(), prefix + tail);

  // Its first event cuts the file to the cursor and appends there.
  obs::CheckpointEvent event;
  event.t = 3;
  event.steps = 6;
  std::ostringstream line;
  obs::JsonlTraceWriter(line).on_checkpoint(event);
  {
    obs::JsonlTraceWriter writer(path, cursor);
    writer.on_checkpoint(event);
    EXPECT_EQ(writer.lines_written(), 2u);
    const auto position = writer.checkpoint_cursor();
    ASSERT_TRUE(position.has_value());
    EXPECT_EQ(position->byte_offset, prefix.size() + line.str().size());
  }
  EXPECT_EQ(slurp(), prefix + line.str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mach::hfl
