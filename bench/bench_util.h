// Shared plumbing for the paper-reproduction bench binaries.
//
// Every figure/table bench:
//   * runs the scaled "smoke" configuration by default and the paper-scale
//     configuration when REPRO_FULL=1 (see hfl::ExperimentConfig::preset);
//   * averages over BENCH_SEEDS runs (default 2, paper uses 3);
//   * prints the paper's rows/series as an aligned table and writes the raw
//     numbers as CSV next to the binary.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/options.h"
#include "comm/config.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/registry.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "obs/jsonl_writer.h"
#include "obs/span_profiler.h"

namespace mach::bench {

inline std::vector<data::TaskKind> parse_tasks(const std::string& flag) {
  if (flag == "all") {
    return {data::TaskKind::MnistLike, data::TaskKind::FmnistLike,
            data::TaskKind::CifarLike};
  }
  if (flag == "mnist") return {data::TaskKind::MnistLike};
  if (flag == "fmnist") return {data::TaskKind::FmnistLike};
  if (flag == "cifar10") return {data::TaskKind::CifarLike};
  throw std::invalid_argument("unknown task filter: " + flag);
}

inline std::vector<std::uint64_t> bench_seeds() {
  const long count = std::strtol(common::env_or("BENCH_SEEDS", "2").c_str(),
                                 nullptr, 10);
  std::vector<std::uint64_t> seeds;
  for (long s = 0; s < std::max(count, 1L); ++s) {
    seeds.push_back(1000 + static_cast<std::uint64_t>(s));
  }
  return seeds;
}

inline bool full_mode() { return common::env_flag("REPRO_FULL"); }

/// Registers the shared --threads flag. Benches default to one worker per
/// hardware thread (0): runs are bitwise identical at any thread count, so
/// parallelism is pure wall-clock win for the reproduction sweeps.
inline void add_threads_flag(common::CliParser& cli) {
  cli.add_flag("threads", static_cast<std::int64_t>(0),
               "worker threads for device training/evaluation "
               "(0 = all hardware threads, 1 = one worker, the calling "
               "thread)");
}

/// Applies the parsed --threads flag to one experiment config.
inline void apply_threads_flag(const common::CliParser& cli,
                               hfl::ExperimentConfig& config) {
  const std::int64_t threads = cli.get_int("threads");
  config.hfl.parallel.threads =
      threads < 0 ? 1 : static_cast<std::size_t>(threads);
}

/// Registers the shared --trace flag: any bench can record a JSONL telemetry
/// trace of every run in its sweep (open with open_bench_trace; summarise
/// with tools/trace_summary).
inline void add_trace_flag(common::CliParser& cli) {
  cli.add_flag("trace", std::string(""),
               "write a JSONL telemetry trace of every run in the sweep to "
               "this path (inspect with tools/trace_summary)");
}

/// Registers the shared --phase_times flag (see print_phase_times).
inline void add_phase_times_flag(common::CliParser& cli) {
  cli.add_flag("phase_times", false,
               "print the wall-clock phase breakdown accumulated over the "
               "whole sweep after the results table");
}

/// The --phase_times table (experiment_runner's), here for timers
/// accumulated across a sweep via PhaseTimerSet::merge.
using obs::print_phase_times;

/// Registers the shared --faults flag: robustness sweeps rerun any figure
/// under an injected failure schedule (fault/schedule.h spec grammar). The
/// empty default leaves every bench bitwise identical to a fault-free build.
inline void add_faults_flag(common::CliParser& cli) {
  cli.add_flag("faults", std::string(""),
               "fault-injection spec, e.g. "
               "'dropout:p=0.1;straggler:p=0.2,timeout=1.5' (empty = none)");
}

/// Applies the parsed --faults flag to one experiment config. A bad spec or
/// a device/edge id outside the config's topology exits with the offending
/// clause named — benches fail fast instead of aborting mid-sweep.
inline void apply_faults_flag(const common::CliParser& cli,
                              hfl::ExperimentConfig& config) {
  const std::string spec = cli.get_string("faults");
  if (spec.empty()) return;
  try {
    config.hfl.faults = fault::FaultSchedule::parse(spec);
    config.hfl.faults.validate_topology(config.num_devices, config.num_edges);
  } catch (const std::invalid_argument& error) {
    std::cerr << "--faults: " << error.what() << "\n";
    std::exit(1);
  }
}

/// Registers the shared --codec flag: any bench can rerun its sweep with
/// per-link transfer codecs (src/comm/) and read the encoded-byte cost off
/// the run_end ledger. The fp32 default is bitwise identical to a build
/// without the comm layer.
inline void add_codec_flag(common::CliParser& cli) {
  cli.add_flag("codec", std::string("fp32"),
               "per-link transfer codecs, e.g. 'int8', 'topk:k=0.05' or "
               "'up=topk:k=0.01,down=bf16' (links: up|down|probe|edge_up|"
               "cloud_down; fp32 = lossless)");
}

/// Applies the parsed --codec flag to one experiment config. A bad spec
/// exits with the offending clause named.
inline void apply_codec_flag(const common::CliParser& cli,
                             hfl::ExperimentConfig& config) {
  const std::string spec = cli.get_string("codec");
  if (spec.empty()) return;
  try {
    config.hfl.comm = comm::CommConfig::parse(spec);
  } catch (const std::invalid_argument& error) {
    std::cerr << "--codec: " << error.what() << "\n";
    std::exit(1);
  }
}

/// Registers the shared checkpoint/resume flags. With a directory set, every
/// (task, sampler, seed) run of the sweep snapshots its full state into its
/// own subdirectory of --checkpoint_dir; --resume continues each run from its
/// newest valid snapshot with bitwise-identical results.
inline void add_checkpoint_flags(common::CliParser& cli) {
  cli.add_flag("checkpoint_every", static_cast<std::int64_t>(0),
               "snapshot each run's state every N steps (0 = off); "
               "requires --checkpoint_dir");
  cli.add_flag("checkpoint_dir", std::string(""),
               "root directory for per-run snapshot subdirectories");
  cli.add_flag("checkpoint_keep", static_cast<std::int64_t>(2),
               "snapshots retained per run (older ones are deleted)");
  cli.add_flag("resume", false,
               "continue every run of the sweep from its newest valid snapshot");
}

/// Applies the parsed checkpoint flags to one experiment config. A missing
/// --checkpoint_dir with checkpointing requested exits with a message.
inline void apply_checkpoint_flags(const common::CliParser& cli,
                                   hfl::ExperimentConfig& config) {
  ckpt::CheckpointOptions& checkpoint = config.hfl.checkpoint;
  checkpoint.dir = cli.get_string("checkpoint_dir");
  if (cli.get_int("checkpoint_every") > 0) {
    checkpoint.every = static_cast<std::size_t>(cli.get_int("checkpoint_every"));
  }
  if (cli.get_int("checkpoint_keep") > 0) {
    checkpoint.keep = static_cast<std::size_t>(cli.get_int("checkpoint_keep"));
  }
  checkpoint.resume = cli.get_bool("resume");
  if (checkpoint.enabled() && checkpoint.dir.empty()) {
    std::cerr << "--checkpoint_every/--resume require --checkpoint_dir\n";
    std::exit(1);
  }
}

/// Opens a JSONL telemetry trace for a bench run, or returns nullptr when
/// `path` is empty (tracing off). Bench traces skip the chatty per-device
/// lines by default — the per-edge/cloud/eval granularity is what the
/// sampling-health analysis needs; every seed's run lands in the same file
/// delimited by run_begin/run_end lines.
inline std::unique_ptr<obs::JsonlTraceWriter> open_bench_trace(
    const std::string& path) {
  if (path.empty()) return nullptr;
  obs::JsonlTraceOptions options;
  options.device_events = false;
  options.step_events = false;
  return std::make_unique<obs::JsonlTraceWriter>(path, options);
}

inline void print_mode_banner(const std::string& experiment) {
  std::cout << "=== " << experiment << " ===\n"
            << "mode: " << (full_mode() ? "FULL (paper scale, CNN models)"
                                        : "smoke (scaled population, MLP models; "
                                          "set REPRO_FULL=1 for paper scale)")
            << ", seeds per point: " << bench_seeds().size() << "\n\n";
}

/// Curve-averaged result: runs per-seed, averages the accuracy curves
/// point-wise (the paper's "average for smoothing"), and reads the
/// time-to-target off the mean curve. Far less sensitive to heavy-tailed
/// single runs than averaging per-seed crossing times.
struct CurveResult {
  std::optional<std::size_t> steps_to_target;
  double reach_rate = 0.0;   // fraction of individual runs reaching it
  double final_accuracy = 0.0;
  /// Mean steps with unreached runs counted as the horizon (secondary view).
  double mean_steps = 0.0;
  /// Phase breakdown summed over the per-seed runs (for --phase_times).
  obs::PhaseTimerSet phases;
};

inline CurveResult run_algo_curve(const hfl::ExperimentConfig& config,
                                  const std::string& sampler_name,
                                  std::span<const std::uint64_t> seeds,
                                  obs::RunObserver* observer = nullptr) {
  CurveResult result;
  std::vector<hfl::MetricsRecorder> runs;
  double reached = 0.0, total_steps = 0.0;
  for (const auto seed : seeds) {
    auto sampler = core::make_sampler(sampler_name);
    const auto run = hfl::run_experiment(config.with_seed(seed), *sampler, observer);
    result.phases.merge(run.phases);
    if (run.time_to_target) {
      reached += 1.0;
      total_steps += static_cast<double>(*run.time_to_target);
    } else {
      total_steps += static_cast<double>(config.horizon);
    }
    runs.push_back(run.metrics);
  }
  const auto curve = hfl::average_curves(runs);
  result.steps_to_target = hfl::curve_time_to_target(curve, config.target_accuracy);
  result.reach_rate = seeds.empty() ? 0.0 : reached / static_cast<double>(seeds.size());
  result.final_accuracy = curve.empty() ? 0.0 : curve.back().test_accuracy;
  result.mean_steps =
      seeds.empty() ? 0.0 : total_steps / static_cast<double>(seeds.size());
  return result;
}

inline std::string steps_cell(const CurveResult& result, std::size_t horizon) {
  if (!result.steps_to_target) return ">" + std::to_string(horizon);
  return std::to_string(*result.steps_to_target);
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mach::bench
