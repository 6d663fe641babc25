#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <sched.h>

#include "comm/config.h"
#include "common/rng.h"
#include "fault/schedule.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "probes.h"

namespace e2e {

namespace {

using mach::data::TaskKind;
using mach::hfl::ExperimentConfig;

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// The coordinator-heavy world shared by fleet_lossy and oracle_probe: the
/// smoke MLP on 2000 devices under 20 edges, one local step per device.
ExperimentConfig fleet_world() {
  ExperimentConfig config = ExperimentConfig::smoke(TaskKind::MnistLike);
  config.num_devices = 2000;
  config.num_edges = 20;
  config.hfl.local_epochs = 1;
  config.hfl.batch_size = 4;
  return config;
}

enum class Kind { Conv, Relu, Pool, Flatten, Dense };
struct LayerSpec {
  Kind kind;
  std::size_t in = 0;
  std::size_t out = 0;
};

/// The layer list hfl::make_model_factory builds for `config`, spelled out
/// here so each layer can be wrapped.
std::vector<LayerSpec> layer_list(const ExperimentConfig& config) {
  const auto& spec = config.data_spec;
  if (config.model == mach::hfl::ModelKind::Mlp) {
    return {{Kind::Flatten},
            {Kind::Dense, spec.channels * spec.height * spec.width, config.mlp_hidden},
            {Kind::Relu},
            {Kind::Dense, config.mlp_hidden, spec.classes}};
  }
  if (config.task == TaskKind::CifarLike) {  // nn::make_cnn3
    return {{Kind::Conv, spec.channels, 8}, {Kind::Relu}, {Kind::Pool},
            {Kind::Conv, 8, 16},            {Kind::Relu}, {Kind::Pool},
            {Kind::Conv, 16, 32},           {Kind::Relu}, {Kind::Pool},
            {Kind::Flatten},
            {Kind::Dense, 32 * (spec.height / 8) * (spec.width / 8), 64},
            {Kind::Relu},
            {Kind::Dense, 64, spec.classes}};
  }
  return {{Kind::Conv, spec.channels, 8}, {Kind::Relu}, {Kind::Pool},  // make_cnn2
          {Kind::Conv, 8, 16},            {Kind::Relu}, {Kind::Pool},
          {Kind::Flatten},
          {Kind::Dense, 16 * (spec.height / 4) * (spec.width / 4), 32},
          {Kind::Relu},
          {Kind::Dense, 32, spec.classes}};
}

std::unique_ptr<mach::nn::Layer> make_layer(const LayerSpec& spec) {
  switch (spec.kind) {
    case Kind::Conv:
      return std::make_unique<mach::nn::Conv2D>(spec.in, spec.out, 3, 1);
    case Kind::Relu:
      return std::make_unique<mach::nn::ReLU>();
    case Kind::Pool:
      return std::make_unique<mach::nn::MaxPool2x2>();
    case Kind::Flatten:
      return std::make_unique<mach::nn::Flatten>();
    case Kind::Dense:
      return std::make_unique<mach::nn::Dense>(spec.in, spec.out);
  }
  throw std::logic_error("unknown layer kind");
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::uint64_t data_seed, const std::string& ckpt_dir) {
  Workload w;
  w.name = name;
  w.sampler = "mach";
  if (name == "cifar_cnn") {
    w.config = ExperimentConfig::full(TaskKind::CifarLike);
    w.episode_steps = 11;  // T_g = 10: evaluations after steps 1 and 11
  } else if (name == "mnist_cnn_4t") {
    w.config = ExperimentConfig::full(TaskKind::MnistLike);
    w.config.hfl.parallel.threads = std::min<std::size_t>(4, available_cpus());
    w.episode_steps = 21;  // T_g = 5
  } else if (name == "fleet_lossy") {
    w.config = fleet_world();
    w.config.hfl.comm = mach::comm::CommConfig::parse("int8");
    w.config.hfl.faults =
        mach::fault::FaultSchedule::parse("dropout:p=0.1;straggler:p=0.2,timeout=1.5");
    w.config.hfl.checkpoint.every = 50;
    w.config.hfl.checkpoint.dir = ckpt_dir;
    w.episode_steps = 51;  // one snapshot, after step 50
  } else if (name == "oracle_probe") {
    w.config = fleet_world();
    w.sampler = "mach_p";
    w.episode_steps = 26;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Eq. 5's literal Horvitz-Thompson form drives the paper-scale CNN runs to
  // non-finite losses within ~20 steps for most seeds; the self-normalised
  // form trains. A diverged run would count as a failed operation.
  w.config.hfl.aggregation = mach::hfl::AggregationForm::SelfNormalized;
  w.config.data_seed = data_seed;
  w.config = w.config.with_seed(seed);
  return w;
}

mach::hfl::ModelFactory traced_model_factory(const ExperimentConfig& config,
                                             Tracer& tracer) {
  return [specs = layer_list(config), &tracer] {
    ModelStats& stats = tracer.new_model(specs.size());
    mach::nn::Sequential model;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      stats.layers[i].index = i;
      model.add(std::make_unique<TimedLayer>(make_layer(specs[i]), stats.layers[i],
                                             stats, tracer));
    }
    return model;
  };
}

bool check_mirror(const ExperimentConfig& config) {
  Tracer tracer;
  mach::nn::Sequential mirror = traced_model_factory(config, tracer)();
  mach::nn::Sequential engine = mach::hfl::make_model_factory(config)();
  mach::common::Rng mirror_rng(config.seed);
  mach::common::Rng engine_rng(config.seed);
  mirror.init_params(mirror_rng);
  engine.init_params(engine_rng);
  const std::vector<float> a = mirror.get_parameters();
  const std::vector<float> b = engine.get_parameters();
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace e2e
