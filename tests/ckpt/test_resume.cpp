// The checkpoint subsystem's core promise: a run killed at any snapshot and
// resumed — even at a different thread count, even with fault injection
// active — finishes with byte-identical CSVs, global parameters and
// canonicalised traces vs the same run left uninterrupted. Also covers the
// torn-latest fallback (resume one interval earlier, never crash), the
// fingerprint guard against resuming a foreign configuration and the payload
// version gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "ckpt/bytes.h"
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

ExperimentConfig resume_scenario(std::uint64_t seed) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
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

/// Continues from the newest valid snapshot in `ckpt_dir` — the CLI resume
/// flow: load, decode the header, truncate-and-append the trace, hand the
/// payload to a fresh simulator.
RunOutput run_resumed(const ExperimentArtifacts& built, const ExperimentConfig& config,
                      std::size_t threads, const std::string& ckpt_dir,
                      const std::string& trace_path, std::size_t every) {
  ckpt::CheckpointManager manager(ckpt_dir);
  auto loaded = manager.load_latest();
  if (!loaded.has_value()) {
    throw std::runtime_error("test: no usable snapshot in " + ckpt_dir);
  }
  ckpt::ByteReader reader(loaded->payload);
  const ckpt::RunStateHeader header = ckpt::RunStateHeader::decode(reader);
  EXPECT_TRUE(header.has_trace_cursor);

  HflSimulator simulator(built.train, built.test, built.partition, built.schedule,
                         make_model_factory(config),
                         options_for(config, threads, ckpt_dir, every));
  RunOutput out;
  {
    const obs::TraceCursor cursor{header.trace_bytes, header.trace_lines};
    obs::JsonlTraceWriter trace(trace_path, cursor);
    simulator.set_observer(&trace);
    simulator.set_resume_payload(loaded->payload);
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
  // fingerprint turns it into a hard error.
  ExperimentConfig other = resume_scenario(82);
  EXPECT_THROW(run_resumed(built, other, 1, dir, trace_path, /*every=*/2),
               std::runtime_error);

  fs::remove_all(dir);
  std::remove(trace_path.c_str());
}

TEST(CheckpointResume, SnapshotOfAnotherVersionStartsFromStepZero) {
  // run_experiment resumes only payloads of the engine's own layout
  // (kRunStateVersion). A snapshot of any other version is skipped with a
  // warning and the run starts over: same metrics and, run_begin line and
  // baseline evaluation included, the same trace as a fresh run.
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
  const auto relabel_latest = [&dir](std::uint32_t version) {
    // run_experiment keeps each run's snapshots in its own subdirectory.
    std::vector<fs::path> runs;
    for (const auto& entry : fs::directory_iterator(dir)) runs.push_back(entry.path());
    ASSERT_EQ(runs.size(), 1u);
    const ckpt::CheckpointManager manager(runs.front().string());
    auto latest = manager.load_latest();
    ASSERT_TRUE(latest.has_value());
    ASSERT_EQ(latest->step, 6u);  // snapshots at t = 3 and 6 for horizon 8
    manager.save(latest->step, version, latest->payload);
  };

  const Run fresh = run(/*resume=*/false);
  relabel_latest(ckpt::kRunStateVersion + 1);
  const Run gated = run(/*resume=*/true);
  EXPECT_EQ(gated.csv, fresh.csv);
  ASSERT_EQ(gated.trace.size(), fresh.trace.size());
  for (std::size_t i = 0; i < fresh.trace.size(); ++i) {
    EXPECT_EQ(gated.trace[i], fresh.trace[i]) << "event " << i;
  }

  // Control: the same payload under the engine's version does resume, so
  // its trace starts at the snapshot (no run_begin line).
  relabel_latest(ckpt::kRunStateVersion);
  const Run resumed = run(/*resume=*/true);
  EXPECT_EQ(resumed.csv, fresh.csv);
  ASSERT_FALSE(resumed.trace.empty());
  EXPECT_EQ(resumed.trace.front().find("\"run_begin\""), std::string::npos);
  EXPECT_LT(resumed.trace.size(), fresh.trace.size());

  fs::remove_all(dir);
}

}  // namespace
}  // namespace mach::hfl
