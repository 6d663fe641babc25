// The checkpoint subsystem's core promise: a run killed at any snapshot and
// resumed — even at a different thread count, even with fault injection
// active — finishes with byte-identical CSVs, global parameters and
// canonicalised traces vs the same run left uninterrupted. Also covers the
// torn-latest fallback (resume one interval earlier, never crash), the
// fingerprint guard against resuming a foreign configuration or data world
// and the payload version rule.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "ckpt/file.h"
#include "ckpt/manager.h"
#include "ckpt/run_state.h"
#include "core/registry.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "hfl/trace_canon.h"
#include "obs/jsonl_writer.h"

namespace mach::hfl {
namespace {

namespace fs = std::filesystem;
using mach::test::canonical_trace;
using mach::test::slurp;

ExperimentConfig resume_scenario(std::uint64_t seed,
                                 data::TaskKind task = data::TaskKind::MnistLike) {
  ExperimentConfig config = ExperimentConfig::smoke(task);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 30;
  config.test_examples = 300;
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 2;
  config.hfl.participation = 0.6;
  config.horizon = 8;
  config.num_stations = 6;
  config.num_hotspots = 2;
  return config.with_seed(seed);
}

struct RunOutput {
  std::vector<float> params;
  std::string csv;
  std::vector<std::string> trace;
};

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

HflOptions options_for(const ExperimentConfig& config, std::size_t threads,
                       const std::string& ckpt_dir, std::size_t every) {
  HflOptions options = config.hfl;
  options.seed = config.seed;
  options.parallel.threads = threads;
  options.checkpoint.dir = ckpt_dir;
  options.checkpoint.every = every;
  return options;
}

std::string csv_of(const MetricsRecorder& metrics, const std::string& tag) {
  // Unique per process: ctest runs the suite's tests concurrently.
  const std::string path = testing::TempDir() + tag + "_" +
                           std::to_string(::getpid()) + ".csv";
  EXPECT_TRUE(metrics.write_csv(path));
  std::string content = slurp(path);
  std::remove(path.c_str());
  return content;
}

/// A full checkpointed run from step 0 (the reference, and also the stand-in
/// for "the run that later gets killed": both are deterministic, so the
/// crashed process's trace prefix and snapshot bytes are exactly these).
RunOutput run_full(const ExperimentArtifacts& built, const ExperimentConfig& config,
                   std::size_t threads, const std::string& ckpt_dir,
                   const std::string& trace_path, std::size_t every) {
  HflSimulator simulator(built.train, built.test, built.partition, built.schedule,
                         make_model_factory(config),
                         options_for(config, threads, ckpt_dir, every));
  RunOutput out;
  {
    obs::JsonlTraceWriter trace(trace_path);
    simulator.set_observer(&trace);
    auto sampler = core::make_sampler("mach");
    const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);
    out.csv = csv_of(metrics, "ckpt_full");
    simulator.set_observer(nullptr);
  }  // writer flushes on destruction, before the slurp below
  out.params = simulator.global_parameters();
  out.trace = canonical_trace(slurp(trace_path));
  return out;
}

/// Continues from the newest usable snapshot in `ckpt_dir` — the CLI resume
/// flow: the engine reads the snapshot, the trace is truncated to its cursor
/// and appended to.
RunOutput run_resumed(const ExperimentArtifacts& built, const ExperimentConfig& config,
                      std::size_t threads, const std::string& ckpt_dir,
                      const std::string& trace_path, std::size_t every) {
  HflOptions options = options_for(config, threads, ckpt_dir, every);
  options.checkpoint.resume = true;
  HflSimulator simulator(built.train, built.test, built.partition, built.schedule,
                         make_model_factory(config), options);
  const auto header = simulator.resume_header();
  if (!header.has_value()) {
    throw std::runtime_error("test: no usable snapshot in " + ckpt_dir);
  }
  EXPECT_TRUE(header->has_trace_cursor);
  RunOutput out;
  {
    const obs::TraceCursor cursor{header->trace_bytes, header->trace_lines};
    obs::JsonlTraceWriter trace(trace_path, cursor);
    simulator.set_observer(&trace);
    auto sampler = core::make_sampler("mach");
    const MetricsRecorder metrics = simulator.run(*sampler, config.horizon);
    out.csv = csv_of(metrics, "ckpt_resumed");
    simulator.set_observer(nullptr);
  }
  out.params = simulator.global_parameters();
  out.trace = canonical_trace(slurp(trace_path));
  return out;
}

/// Simulates the debris a SIGKILLed process leaves in its trace: events
/// emitted after the last durable snapshot, ending mid-line.
void append_crash_debris(const std::string& trace_path) {
  std::ofstream out(trace_path, std::ios::app);
  out << "{\"event\":\"step\",\"t\":999,\"active_edges\":1,\"devices_present\":4}\n";
  out << "{\"event\":\"device\",\"t\":999,\"dev";  // torn final write
}

void expect_same_run(const RunOutput& resumed, const RunOutput& reference) {
  EXPECT_EQ(resumed.params, reference.params);  // bitwise, no tolerance
  EXPECT_EQ(resumed.csv, reference.csv);
  ASSERT_EQ(resumed.trace.size(), reference.trace.size());
  for (std::size_t i = 0; i < reference.trace.size(); ++i) {
    EXPECT_EQ(resumed.trace[i], reference.trace[i]) << "event " << i;
  }
}

TEST(CheckpointResume, ResumedRunMatchesUninterrupted) {
  const ExperimentConfig config = resume_scenario(47);
  const ExperimentArtifacts built = build_experiment(config);
  const std::string ref_dir = fresh_dir("ckpt_ref");
  const std::string ref_trace = testing::TempDir() + "ckpt_ref.jsonl";
  const std::string crash_dir = fresh_dir("ckpt_crash");
  const std::string crash_trace = testing::TempDir() + "ckpt_crash.jsonl";

  const RunOutput reference =
      run_full(built, config, 1, ref_dir, ref_trace, /*every=*/3);
  // The "crashed" run: identical deterministic content; its snapshots and
  // trace prefix are what a SIGKILLed process would have left durable.
  run_full(built, config, 1, crash_dir, crash_trace, /*every=*/3);
  append_crash_debris(crash_trace);

  const RunOutput resumed =
      run_resumed(built, config, 1, crash_dir, crash_trace, /*every=*/3);
  expect_same_run(resumed, reference);

  // The checkpoint markers are part of the determinism contract too: both
  // traces must contain them (snapshots at t=3 and t=6 for horizon 8).
  std::size_t markers = 0;
  for (const auto& event : resumed.trace) {
    if (event.find("\"checkpoint\"") != std::string::npos) ++markers;
  }
  EXPECT_EQ(markers, 2u);

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  std::remove(ref_trace.c_str());
  std::remove(crash_trace.c_str());
}

TEST(CheckpointResume, ResumeAtADifferentThreadCountIsBitwiseIdentical) {
  const ExperimentConfig config = resume_scenario(53);
  const ExperimentArtifacts built = build_experiment(config);
  const std::string ref_dir = fresh_dir("ckpt_threads_ref");
  const std::string ref_trace = testing::TempDir() + "ckpt_threads_ref.jsonl";
  const std::string crash_dir = fresh_dir("ckpt_threads_crash");
  const std::string crash_trace = testing::TempDir() + "ckpt_threads_crash.jsonl";

  // Reference runs serial; the crashed run was serial too; the resumed
  // process comes back with 3 workers.
  const RunOutput reference =
      run_full(built, config, 1, ref_dir, ref_trace, /*every=*/2);
  run_full(built, config, 1, crash_dir, crash_trace, /*every=*/2);
  append_crash_debris(crash_trace);

  const RunOutput resumed =
      run_resumed(built, config, 3, crash_dir, crash_trace, /*every=*/2);
  expect_same_run(resumed, reference);

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  std::remove(ref_trace.c_str());
  std::remove(crash_trace.c_str());
}

TEST(CheckpointResume, ResumeWithActiveFaultInjectionMatches) {
  ExperimentConfig config = resume_scenario(61);
  config.hfl.faults = fault::FaultSchedule::parse(
      "dropout:p=0.25;straggler:p=0.3,delay=1.5,timeout=1,backoff=0.5,"
      "retries=2;edge_outage:edge=0,from=2,to=4;cloud_loss:p=0.3;seed=77");
  const ExperimentArtifacts built = build_experiment(config);
  const std::string ref_dir = fresh_dir("ckpt_faults_ref");
  const std::string ref_trace = testing::TempDir() + "ckpt_faults_ref.jsonl";
  const std::string crash_dir = fresh_dir("ckpt_faults_crash");
  const std::string crash_trace = testing::TempDir() + "ckpt_faults_crash.jsonl";

  const RunOutput reference =
      run_full(built, config, 1, ref_dir, ref_trace, /*every=*/3);
  run_full(built, config, 1, crash_dir, crash_trace, /*every=*/3);
  append_crash_debris(crash_trace);

  const RunOutput resumed =
      run_resumed(built, config, 2, crash_dir, crash_trace, /*every=*/3);
  expect_same_run(resumed, reference);

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  std::remove(ref_trace.c_str());
  std::remove(crash_trace.c_str());
}

TEST(CheckpointResume, TornLatestSnapshotFallsBackOneIntervalAndStillMatches) {
  const ExperimentConfig config = resume_scenario(71);
  const ExperimentArtifacts built = build_experiment(config);
  const std::string ref_dir = fresh_dir("ckpt_torn_ref");
  const std::string ref_trace = testing::TempDir() + "ckpt_torn_ref.jsonl";
  const std::string crash_dir = fresh_dir("ckpt_torn_crash");
  const std::string crash_trace = testing::TempDir() + "ckpt_torn_crash.jsonl";

  const RunOutput reference =
      run_full(built, config, 1, ref_dir, ref_trace, /*every=*/2);
  run_full(built, config, 1, crash_dir, crash_trace, /*every=*/2);
  append_crash_debris(crash_trace);

  // SIGKILL tore the newest snapshot mid-write: resume must degrade to the
  // previous valid one (one interval earlier), never crash.
  ckpt::CheckpointManager manager(crash_dir);
  auto snapshots = manager.list();
  ASSERT_EQ(snapshots.size(), 2u);  // keep=2 of the t=2,4,6 series
  std::error_code ec;
  fs::resize_file(snapshots.back(), 9, ec);
  ASSERT_FALSE(ec);

  const RunOutput resumed =
      run_resumed(built, config, 1, crash_dir, crash_trace, /*every=*/2);
  expect_same_run(resumed, reference);

  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
  std::remove(ref_trace.c_str());
  std::remove(crash_trace.c_str());
}

TEST(CheckpointResume, ForeignConfigurationIsRejectedByTheFingerprint) {
  const ExperimentConfig config = resume_scenario(81);
  const ExperimentArtifacts built = build_experiment(config);
  const std::string dir = fresh_dir("ckpt_foreign_cfg");
  const std::string trace_path = testing::TempDir() + "ckpt_foreign_cfg.jsonl";

  run_full(built, config, 1, dir, trace_path, /*every=*/2);

  // Same topology, different seed: the event sequence diverges from step 0,
  // so continuing from this snapshot would be silently wrong. The
  // fingerprint turns it into a configuration error: retrying cannot help.
  ExperimentConfig other = resume_scenario(82);
  EXPECT_THROW(run_resumed(built, other, 1, dir, trace_path, /*every=*/2),
               std::invalid_argument);

  fs::remove_all(dir);
  std::remove(trace_path.c_str());
}

TEST(CheckpointResume, AnotherDataWorldIsRejectedByTheFingerprint) {
  const ExperimentConfig config = resume_scenario(83);
  const ExperimentArtifacts built = build_experiment(config);
  const std::string dir = fresh_dir("ckpt_foreign_data");
  const std::string trace_path = testing::TempDir() + "ckpt_foreign_data.jsonl";

  run_full(built, config, 1, dir, trace_path, /*every=*/2);

  // Seed, topology, hyperparameters and mobility stay fixed; only the data
  // changes: first the long-tail ratio (label marginal and partition), then
  // the task (fmnist's images under the same overrides). Continuing from
  // this snapshot would train another world's model.
  ExperimentConfig long_tail = config;
  long_tail.long_tail_ratio = 0.3;
  for (const ExperimentConfig& other :
       {long_tail, resume_scenario(83, data::TaskKind::FmnistLike)}) {
    const ExperimentArtifacts world = build_experiment(other);
    const mobility::MobilitySchedule& a = built.schedule;
    const mobility::MobilitySchedule& b = world.schedule;
    ASSERT_EQ(a.horizon(), b.horizon());
    for (std::size_t t = 0; t < a.horizon(); ++t) {
      for (std::size_t m = 0; m < a.num_devices(); ++m) {
        ASSERT_EQ(a.edge_of(t, m), b.edge_of(t, m));
      }
    }
    EXPECT_THROW(run_resumed(world, other, 1, dir, trace_path, /*every=*/2),
                 std::invalid_argument);
  }

  fs::remove_all(dir);
  std::remove(trace_path.c_str());
}

TEST(CheckpointResume, SnapshotOfAnotherVersionStartsFromStepZero) {
  // The engine resumes only payloads of its own layout (kRunStateVersion):
  // CheckpointManager skips a snapshot of any other version like a torn
  // one. With every snapshot relabelled, run_experiment starts over: same
  // metrics and, run_begin line and baseline evaluation included, the same
  // trace as a fresh run. With only the newest relabelled it resumes from
  // the older one.
  ExperimentConfig config = resume_scenario(91);
  const std::string dir = fresh_dir("ckpt_version_gate");
  config.hfl.checkpoint.dir = dir;
  config.hfl.checkpoint.every = 3;
  struct Run {
    std::string csv;
    std::vector<std::string> trace;
  };
  const auto run = [&config](bool resume) {
    config.hfl.checkpoint.resume = resume;
    std::ostringstream jsonl;
    Run out;
    {
      obs::JsonlTraceWriter trace(jsonl);
      auto sampler = core::make_sampler("mach");
      out.csv = csv_of(run_experiment(config, *sampler, &trace).metrics,
                       "ckpt_version_gate");
    }
    out.trace = canonical_trace(jsonl.str());
    return out;
  };
  const auto markers = [](const Run& run) {
    std::size_t count = 0;
    for (const auto& event : run.trace) {
      if (event.find("\"checkpoint\"") != std::string::npos) ++count;
    }
    return count;
  };
  // Rewrites snapshots under another version word, payload unchanged.
  const auto relabel = [&dir](std::uint32_t version, bool newest_only) {
    // run_experiment keeps each run's snapshots in its own subdirectory.
    std::vector<fs::path> runs;
    for (const auto& entry : fs::directory_iterator(dir)) runs.push_back(entry.path());
    ASSERT_EQ(runs.size(), 1u);
    std::vector<std::string> snapshots =
        ckpt::CheckpointManager(runs.front().string()).list();
    ASSERT_EQ(snapshots.size(), 2u);  // t = 3 and 6 for horizon 8
    if (newest_only) snapshots.erase(snapshots.begin());
    for (const std::string& path : snapshots) {
      auto blob = ckpt::read_checkpoint_file(path);
      ASSERT_TRUE(blob.has_value());
      ckpt::write_checkpoint_file(path, version, blob->payload);
    }
  };

  const Run fresh = run(/*resume=*/false);
  ASSERT_EQ(markers(fresh), 2u);
  relabel(ckpt::kRunStateVersion + 1, /*newest_only=*/false);
  const Run gated = run(/*resume=*/true);
  EXPECT_EQ(gated.csv, fresh.csv);
  ASSERT_EQ(gated.trace.size(), fresh.trace.size());
  for (std::size_t i = 0; i < fresh.trace.size(); ++i) {
    EXPECT_EQ(gated.trace[i], fresh.trace[i]) << "event " << i;
  }

  // The gated run rewrote both snapshots. A newer snapshot of another
  // version does not hide the older one: the run resumes at t = 3, so its
  // trace is the fresh trace's tail after the first marker, holding the
  // t = 6 marker and no run_begin line.
  relabel(ckpt::kRunStateVersion + 1, /*newest_only=*/true);
  const Run fallback = run(/*resume=*/true);
  EXPECT_EQ(fallback.csv, fresh.csv);
  ASSERT_FALSE(fallback.trace.empty());
  EXPECT_EQ(fallback.trace.front().find("\"run_begin\""), std::string::npos);
  EXPECT_EQ(markers(fallback), 1u);
  ASSERT_LT(fallback.trace.size(), fresh.trace.size());
  const std::size_t skipped = fresh.trace.size() - fallback.trace.size();
  for (std::size_t i = 0; i < fallback.trace.size(); ++i) {
    EXPECT_EQ(fallback.trace[i], fresh.trace[skipped + i]) << "event " << i;
  }

  // Control: the same payloads under the engine's version do resume, from
  // the newest (t = 6), so no marker is left to write.
  relabel(ckpt::kRunStateVersion, /*newest_only=*/false);
  const Run resumed = run(/*resume=*/true);
  EXPECT_EQ(resumed.csv, fresh.csv);
  ASSERT_FALSE(resumed.trace.empty());
  EXPECT_EQ(resumed.trace.front().find("\"run_begin\""), std::string::npos);
  EXPECT_EQ(markers(resumed), 0u);
  EXPECT_LT(resumed.trace.size(), fallback.trace.size());

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mach::hfl
