// The four fixed workloads of the end-to-end benchmark and the traced model
// mirror. Every workload is configured only through hfl::ExperimentConfig and
// the CommConfig/FaultSchedule spec grammars, so the engine can be
// restructured underneath without touching this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hfl/experiment.h"

namespace e2e {

class Tracer;

struct Workload {
  std::string name;
  mach::hfl::ExperimentConfig config;
  std::string sampler;
  /// Steps per episode. An episode is one HflSimulator::run() from a freshly
  /// initialised model; short episodes give a run many of them, and each
  /// has at least two evaluations after step 0 for mean_accuracy.
  std::size_t episode_steps = 0;
};

/// Builds a workload (cifar_cnn, mnist_cnn_4t, fleet_lossy, oracle_probe) for
/// the run seed and data seed. `ckpt_dir` is where the workloads that
/// checkpoint write their snapshots. Throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t data_seed, const std::string& ckpt_dir);

/// The workload's model built from the benchmark's own layer list (mirroring
/// hfl::make_model_factory), every layer wrapped in a TimedLayer that reports
/// to `tracer`. check_mirror() guards the mirror against drifting from the
/// engine's factory.
mach::hfl::ModelFactory traced_model_factory(const mach::hfl::ExperimentConfig& config,
                                             Tracer& tracer);

/// True when the mirror and hfl::make_model_factory produce bitwise-equal
/// parameters after the same initialisation.
bool check_mirror(const mach::hfl::ExperimentConfig& config);

}  // namespace e2e
