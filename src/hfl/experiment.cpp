#include "hfl/experiment.h"

#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "ckpt/run_state.h"
#include "common/cli.h"
#include "mobility/mobility_model.h"
#include "nn/factory.h"

namespace mach::hfl {

namespace {

/// Task-specific knobs shared by both scales.
void apply_task_defaults(ExperimentConfig& config, data::TaskKind task) {
  config.task = task;
  config.data_spec = data::SyntheticSpec::preset(task);
  switch (task) {
    case data::TaskKind::MnistLike:
      config.hfl.cloud_interval = 5;
      config.target_accuracy = 0.75;
      break;
    case data::TaskKind::FmnistLike:
      config.hfl.cloud_interval = 5;
      config.target_accuracy = 0.65;
      break;
    case data::TaskKind::CifarLike:
      config.hfl.cloud_interval = 10;
      config.target_accuracy = 0.60;
      break;
  }
}

}  // namespace

ExperimentConfig ExperimentConfig::smoke(data::TaskKind task) {
  ExperimentConfig config;
  apply_task_defaults(config, task);
  config.num_devices = 40;
  config.num_edges = 10;
  config.train_per_device = 60;
  config.test_examples = 600;
  config.model = ModelKind::Mlp;
  config.hfl.local_epochs = 5;
  config.hfl.batch_size = 4;
  config.hfl.participation = 0.5;
  config.num_stations = 40;
  config.num_hotspots = 5;
  // Smoke mode shrinks images (the MLP flattens them anyway); full mode
  // keeps the preset resolutions required by the paper's CNN stacks.
  config.data_spec.height = 8;
  config.data_spec.width = 8;
  // Horizons, learning rates and targets below are calibrated so that the
  // target accuracy falls in the mid/late convergence region of each tier
  // (mirroring where the paper's targets sit on its real-data curves).
  switch (task) {
    case data::TaskKind::MnistLike:
      config.mlp_hidden = 32;
      config.hfl.learning_rate = 0.05;
      config.horizon = 200;
      config.target_accuracy = 0.78;
      break;
    case data::TaskKind::FmnistLike:
      config.mlp_hidden = 32;
      config.hfl.learning_rate = 0.05;
      config.horizon = 240;
      config.target_accuracy = 0.48;
      break;
    case data::TaskKind::CifarLike:
      config.mlp_hidden = 48;
      config.hfl.learning_rate = 0.045;
      config.horizon = 240;
      config.target_accuracy = 0.37;
      break;
  }
  return config;
}

ExperimentConfig ExperimentConfig::full(data::TaskKind task) {
  ExperimentConfig config;
  apply_task_defaults(config, task);
  config.num_devices = 100;
  config.num_edges = 10;
  config.train_per_device = 150;
  config.test_examples = 2000;
  config.model = ModelKind::PaperCnn;
  config.hfl.local_epochs = 10;
  config.hfl.batch_size = 16;
  config.hfl.participation = 0.5;
  config.num_stations = 80;
  config.num_hotspots = 8;
  switch (task) {
    case data::TaskKind::MnistLike:
      config.hfl.learning_rate = 0.02;
      config.horizon = 400;
      break;
    case data::TaskKind::FmnistLike:
      config.hfl.learning_rate = 0.02;
      config.horizon = 500;
      break;
    case data::TaskKind::CifarLike:
      config.hfl.learning_rate = 0.02;
      config.horizon = 800;
      break;
  }
  return config;
}

ExperimentConfig ExperimentConfig::preset(data::TaskKind task) {
  return common::env_flag("REPRO_FULL") ? full(task) : smoke(task);
}

ExperimentConfig ExperimentConfig::with_seed(std::uint64_t seed) const {
  ExperimentConfig copy = *this;
  copy.seed = seed;
  copy.hfl.seed = seed;
  return copy;
}

ExperimentArtifacts build_experiment(const ExperimentConfig& config) {
  // Data: one generator (fixed concept), long-tailed global label marginal.
  data::SyntheticGenerator generator(config.data_spec,
                                     common::split_seed(config.data_seed, 0x9e1));
  common::Rng data_rng(common::split_seed(config.data_seed, 0x9e2));
  const auto global_weights = data::long_tailed_weights(config.data_spec.classes,
                                                        config.long_tail_ratio);
  data::Dataset train = generator.generate(
      config.num_devices * config.train_per_device, global_weights, data_rng);
  data::Dataset test = generator.generate_uniform(config.test_examples, data_rng);

  // Partition: per-device long-tailed marginals with random dominant class.
  common::Rng part_rng(common::split_seed(config.data_seed, 0x9e3));
  data::Partition partition = data::partition_long_tailed(
      train, config.num_devices, config.long_tail_ratio, part_rng);
  if (config.redundant_fraction > 0.0) {
    common::Rng redundancy_rng(common::split_seed(config.data_seed, 0x9e7));
    data::apply_redundancy(partition, config.redundant_fraction,
                           config.redundant_keep, redundancy_rng);
  }

  // Mobility: telecom-style station layout -> k-means edges -> Markov trace.
  mobility::StationLayoutSpec layout;
  layout.num_stations = config.num_stations;
  layout.num_hotspots = config.num_hotspots;
  layout.area_size = config.area_size;
  layout.hotspot_stddev = config.hotspot_stddev;
  layout.background_fraction = config.background_fraction;
  auto stations = mobility::generate_stations(layout,
                                              common::split_seed(config.data_seed, 0x9e4));
  const auto clustering = mobility::cluster_stations(
      stations, config.num_edges, common::split_seed(config.data_seed, 0x9e5));
  mobility::MarkovMobilityModel model(std::move(stations), config.stay_prob,
                                      config.move_range);
  const mobility::Trace trace = mobility::generate_trace(
      model, config.num_devices, std::max<std::size_t>(config.horizon, 1),
      common::split_seed(config.data_seed, 0x9e6));
  const mobility::TraceReplay replay(trace);
  auto schedule = mobility::MobilitySchedule::from_trace(replay, clustering);

  return ExperimentArtifacts{std::move(train), std::move(test), std::move(partition),
                             std::move(schedule)};
}

void apply_scenario(const mobility::Scenario& scenario, ExperimentConfig& config) {
  config.num_stations = scenario.num_stations;
  config.num_hotspots = scenario.num_hotspots;
  config.area_size = scenario.area_size;
  config.hotspot_stddev = scenario.hotspot_stddev;
  config.background_fraction = scenario.background_fraction;
  config.stay_prob = scenario.stay_prob;
  config.move_range = scenario.move_range;
  config.scenario_name = scenario.to_string();
}

ModelFactory make_model_factory(const ExperimentConfig& config) {
  const auto& spec = config.data_spec;
  if (config.model == ModelKind::Mlp) {
    const std::size_t features = spec.channels * spec.height * spec.width;
    const std::size_t hidden = config.mlp_hidden;
    const std::size_t classes = spec.classes;
    return [features, hidden, classes] {
      return nn::make_mlp(features, hidden, classes);
    };
  }
  if (config.task == data::TaskKind::CifarLike) {
    return [spec] {
      return nn::make_cnn3(spec.channels, spec.height, spec.width, spec.classes);
    };
  }
  return [spec] {
    return nn::make_cnn2(spec.channels, spec.height, spec.width, spec.classes);
  };
}

RunResult run_experiment(const ExperimentConfig& config, Sampler& sampler,
                         obs::RunObserver* observer) {
  ExperimentArtifacts artifacts = build_experiment(config);
  HflOptions options = config.hfl;
  options.seed = config.seed;
  if (options.checkpoint.enabled() && !options.checkpoint.dir.empty()) {
    // Sweeps run many (task, sampler, seed, hyperparameter) combinations back
    // to back; give each its own snapshot subdirectory so runs never clobber
    // each other and --resume picks up exactly the run it belongs to. The
    // hash suffix separates sweep points that differ only in hyperparameters
    // (e.g. fig5's participation grid).
    std::uint64_t h = ckpt::kHashSeed;
    h = ckpt::hash_u64(h, config.num_devices);
    h = ckpt::hash_u64(h, config.num_edges);
    h = ckpt::hash_u64(h, config.train_per_device);
    h = ckpt::hash_u64(h, config.horizon);
    h = ckpt::hash_u64(h, config.hfl.local_epochs);
    h = ckpt::hash_u64(h, config.hfl.cloud_interval);
    h = ckpt::hash_u64(h, config.hfl.batch_size);
    h = ckpt::hash_u64(h, static_cast<std::uint64_t>(config.hfl.aggregation));
    h = ckpt::hash_u64(h, config.data_seed);
    h = ckpt::hash_f64(h, config.hfl.participation);
    h = ckpt::hash_f64(h, config.hfl.learning_rate);
    h = ckpt::hash_f64(h, config.stay_prob);
    h = ckpt::hash_f64(h, config.long_tail_ratio);
    // Scenario-shaped world knobs: sweeps over --scenario must not share
    // snapshot directories between presets.
    h = ckpt::hash_u64(h, config.num_stations);
    h = ckpt::hash_u64(h, config.num_hotspots);
    h = ckpt::hash_f64(h, config.area_size);
    h = ckpt::hash_f64(h, config.hotspot_stddev);
    h = ckpt::hash_f64(h, config.background_fraction);
    h = ckpt::hash_f64(h, config.move_range);
    h = ckpt::hash_str(h, config.hfl.faults.empty() ? ""
                                                    : config.hfl.faults.to_string());
    h = ckpt::hash_str(h, config.hfl.comm.all_fp32() ? ""
                                                     : config.hfl.comm.to_string());
    std::ostringstream subdir;
    subdir << '/' << data::task_name(config.task) << '_' << sampler.name()
           << "_s" << config.seed << '_' << std::hex << std::setw(8)
           << std::setfill('0') << static_cast<std::uint32_t>(h ^ (h >> 32));
    options.checkpoint.dir += subdir.str();
  }
  HflSimulator simulator(artifacts.train, artifacts.test, std::move(artifacts.partition),
                         artifacts.schedule, make_model_factory(config), options);
  simulator.set_observer(observer);
  RunResult result;
  result.sampler_name = sampler.name();
  result.metrics = simulator.run(sampler, config.horizon);
  result.time_to_target = result.metrics.time_to_accuracy(config.target_accuracy);
  result.phases = simulator.phase_timers();
  return result;
}

AveragedTimeToTarget averaged_time_to_target(const ExperimentConfig& config,
                                             const SamplerFactory& make_sampler,
                                             std::span<const std::uint64_t> seeds) {
  AveragedTimeToTarget result;
  if (seeds.empty()) return result;
  double total = 0.0;
  std::size_t reached = 0;
  for (std::uint64_t seed : seeds) {
    SamplerPtr sampler = make_sampler();
    const RunResult run = run_experiment(config.with_seed(seed), *sampler);
    result.per_seed.push_back(run.time_to_target);
    if (run.time_to_target) {
      total += static_cast<double>(*run.time_to_target);
      ++reached;
    } else {
      total += static_cast<double>(config.horizon);
    }
  }
  result.mean_steps = total / static_cast<double>(seeds.size());
  result.reach_rate = static_cast<double>(reached) / static_cast<double>(seeds.size());
  return result;
}

std::vector<EvalPoint> average_curves(const std::vector<MetricsRecorder>& runs) {
  std::vector<EvalPoint> curve;
  if (runs.empty()) return curve;
  std::size_t points = runs.front().points().size();
  for (const auto& run : runs) points = std::min(points, run.points().size());
  curve.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    EvalPoint& avg = curve[i];
    avg.t = runs.front().points()[i].t;
    for (const auto& run : runs) {
      const EvalPoint& p = run.points()[i];
      avg.test_accuracy += p.test_accuracy;
      avg.test_loss += p.test_loss;
      avg.train_loss += p.train_loss;
      avg.participants += p.participants;
    }
    const auto denom = static_cast<double>(runs.size());
    avg.test_accuracy /= denom;
    avg.test_loss /= denom;
    avg.train_loss /= denom;
    avg.participants = static_cast<std::size_t>(
        static_cast<double>(avg.participants) / denom);
  }
  return curve;
}

std::optional<std::size_t> curve_time_to_target(const std::vector<EvalPoint>& curve,
                                                double target) {
  for (const auto& p : curve) {
    if (p.test_accuracy >= target) return p.t;
  }
  return std::nullopt;
}

}  // namespace mach::hfl
