#include "hfl/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/mach.h"
#include "core/registry.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "hfl/experiment.h"
#include "hfl/flush_world.h"
#include "obs/observer.h"
#include "sampling/baselines.h"

namespace mach::hfl {
namespace {

/// Small, fast config used across the integration tests.
ExperimentConfig tiny_config(std::uint64_t seed = 1) {
  ExperimentConfig config = ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 12;
  config.num_edges = 3;
  config.train_per_device = 30;
  config.test_examples = 200;
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 3;
  config.hfl.batch_size = 8;
  config.hfl.cloud_interval = 5;
  config.horizon = 40;
  config.num_stations = 12;
  config.num_hotspots = 3;
  return config.with_seed(seed);
}

struct BuiltSim {
  ExperimentArtifacts artifacts;
  std::unique_ptr<HflSimulator> sim;
};

BuiltSim build_sim(const ExperimentConfig& config) {
  BuiltSim built{build_experiment(config), nullptr};
  HflOptions options = config.hfl;
  options.seed = config.seed;
  built.sim = std::make_unique<HflSimulator>(
      built.artifacts.train, built.artifacts.test, built.artifacts.partition,
      built.artifacts.schedule, make_model_factory(config), options);
  return built;
}

/// Decorator asserting Eq. (3)/(12) on every strategy the engine consumes.
class BudgetCheckingSampler final : public Sampler {
 public:
  explicit BudgetCheckingSampler(SamplerPtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void bind(const FederationInfo& info) override { inner_->bind(info); }
  std::vector<double> edge_probabilities(const EdgeSamplingContext& ctx) override {
    auto q = inner_->edge_probabilities(ctx);
    EXPECT_EQ(q.size(), ctx.devices.size());
    double total = 0.0;
    for (double p : q) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0 + 1e-9);
      total += p;
    }
    EXPECT_LE(total, ctx.capacity + 1e-6) << "edge " << ctx.edge << " t=" << ctx.t;
    ++checks_;
    return q;
  }
  void observe_training(const TrainingObservation& obs) override {
    inner_->observe_training(obs);
  }
  void on_cloud_round(std::size_t t) override { inner_->on_cloud_round(t); }
  bool needs_oracle() const override { return inner_->needs_oracle(); }
  std::size_t checks() const noexcept { return checks_; }

 private:
  SamplerPtr inner_;
  std::size_t checks_ = 0;
};

/// MACH-P's interface without its policy: asks for oracle norms, records
/// the ones of step 0 (every edge then still holds the initial global
/// model) and samples uniformly.
class OracleRecordingSampler final : public Sampler {
 public:
  std::string name() const override { return "oracle_recorder"; }
  bool needs_oracle() const override { return true; }
  std::vector<double> edge_probabilities(const EdgeSamplingContext& ctx) override {
    EXPECT_EQ(ctx.oracle_grad_sq_norms.size(), ctx.devices.size());
    for (std::size_t i = 0; i < ctx.devices.size() && ctx.t == 0; ++i) {
      records_.emplace_back(ctx.devices[i], ctx.oracle_grad_sq_norms[i]);
    }
    const double q = std::min(1.0, ctx.capacity / static_cast<double>(ctx.devices.size()));
    return std::vector<double>(ctx.devices.size(), q);
  }
  const std::vector<std::pair<std::uint32_t, double>>& records() const { return records_; }

 private:
  std::vector<std::pair<std::uint32_t, double>> records_;
};

TEST(Simulator, OracleProbesEqualUnbatchedGradientNorms) {
  // Probes load the edge model once per edge round, stage their norms in
  // batches of eight and flush before the sampler reads them. Each norm
  // must still be the unbatched grad_squared_norm() of the device's
  // 16-example shard prefix (the simulator's probe cap) at the initial
  // model. ~20 devices per edge fill full batches and leave a partial one.
  auto config = tiny_config(8);
  config.num_devices = 40;
  config.num_edges = 2;
  auto built = build_sim(config);
  const std::vector<float> initial = built.sim->global_parameters();
  OracleRecordingSampler sampler;
  built.sim->run(sampler, 1);
  ASSERT_GT(sampler.records().size(), 16u);
  nn::Sequential model = make_model_factory(config)();
  model.set_parameters(initial);
  for (const auto& [device, norm] : sampler.records()) {
    const auto& shard = built.artifacts.partition[device];
    const std::size_t count = std::min<std::size_t>(shard.size(), 16);
    const data::Batch batch = built.artifacts.train.gather(
        std::span<const std::size_t>(shard.data(), count));
    model.forward_backward(batch.features, batch.labels);
    EXPECT_EQ(norm, model.grad_squared_norm()) << "device " << device;
  }
}

TEST(Simulator, RecordsEvalPointsOnCloudSchedule) {
  const auto config = tiny_config();
  auto built = build_sim(config);
  sampling::UniformSampler sampler;
  const MetricsRecorder metrics = built.sim->run(sampler, config.horizon);
  ASSERT_FALSE(metrics.empty());
  const auto& points = metrics.points();
  EXPECT_EQ(points.front().t, 0u);  // initial evaluation
  // Cloud rounds happen at t = 0, Tg, 2Tg, ... and are recorded at t+1.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_EQ((points[i].t - 1) % config.hfl.cloud_interval, 0u);
    EXPECT_GT(points[i].t, points[i - 1].t);
  }
  // 40 steps with Tg=5 -> cloud rounds at 0,5,...,35 -> 8 evals + initial.
  EXPECT_EQ(points.size(), 9u);
}

TEST(Simulator, LearningImprovesAccuracy) {
  auto config = tiny_config(3);
  config.horizon = 80;
  auto built = build_sim(config);
  sampling::UniformSampler sampler;
  const MetricsRecorder metrics = built.sim->run(sampler, config.horizon);
  const double initial = metrics.points().front().test_accuracy;
  EXPECT_GT(metrics.best_accuracy(), initial + 0.2);
  // Literal Eq. (5) aggregation is noisy on tiny edges, so compare the
  // best loss over the run rather than the final point.
  double best_loss = metrics.points().front().test_loss;
  for (const auto& p : metrics.points()) best_loss = std::min(best_loss, p.test_loss);
  EXPECT_LT(best_loss, metrics.points().front().test_loss);
}

TEST(Simulator, EveryStrategyRespectsBudget) {
  for (const char* name : {"uniform", "class_balance", "statistical", "mach"}) {
    const auto config = tiny_config(4);
    auto built = build_sim(config);
    BudgetCheckingSampler sampler(core::make_sampler(name));
    built.sim->run(sampler, config.horizon);
    EXPECT_GT(sampler.checks(), 0u) << name;
  }
}

TEST(Simulator, DeterministicGivenSeed) {
  const auto config = tiny_config(5);
  auto a = build_sim(config);
  auto b = build_sim(config);
  sampling::UniformSampler sa, sb;
  const auto ma = a.sim->run(sa, config.horizon);
  const auto mb = b.sim->run(sb, config.horizon);
  ASSERT_EQ(ma.points().size(), mb.points().size());
  for (std::size_t i = 0; i < ma.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(ma.points()[i].test_accuracy, mb.points()[i].test_accuracy);
    EXPECT_DOUBLE_EQ(ma.points()[i].test_loss, mb.points()[i].test_loss);
  }
}

TEST(Simulator, DifferentSeedsDiverge) {
  auto a = build_sim(tiny_config(6));
  auto b = build_sim(tiny_config(7));
  sampling::UniformSampler sa, sb;
  const auto ma = a.sim->run(sa, 40);
  const auto mb = b.sim->run(sb, 40);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(ma.points().size(), mb.points().size()); ++i) {
    differs |= ma.points()[i].test_accuracy != mb.points()[i].test_accuracy;
  }
  EXPECT_TRUE(differs);
}

TEST(Simulator, FullSamplerMatchesSaturatedUniform) {
  // A per-edge capacity of |M| (3.0 * 12 devices / 3 edges = 12) makes the
  // uniform strategy return q = 1 for every device regardless of how
  // mobility distributes devices over edges (budgeted_probabilities clamps
  // it per edge), which must be byte-identical to FullParticipationSampler.
  auto config = tiny_config(8);
  config.hfl.participation = 3.0;
  config.horizon = 20;
  auto a = build_sim(config);
  auto b = build_sim(config);
  sampling::UniformSampler uniform;
  sampling::FullParticipationSampler full;
  const auto ma = a.sim->run(uniform, config.horizon);
  const auto mb = b.sim->run(full, config.horizon);
  ASSERT_EQ(ma.points().size(), mb.points().size());
  for (std::size_t i = 0; i < ma.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(ma.points()[i].test_accuracy, mb.points()[i].test_accuracy);
  }
}

TEST(Simulator, OracleSamplerPathWorks) {
  const auto config = tiny_config(9);
  auto built = build_sim(config);
  core::MachOracleSampler sampler;
  const auto metrics = built.sim->run(sampler, 20);
  EXPECT_FALSE(metrics.empty());
}

TEST(Simulator, MachEndToEnd) {
  const auto config = tiny_config(10);
  auto built = build_sim(config);
  core::MachSampler sampler;
  const auto metrics = built.sim->run(sampler, config.horizon);
  EXPECT_GT(metrics.best_accuracy(), metrics.points().front().test_accuracy);
}

TEST(Simulator, EveryAggregationFormRuns) {
  for (const auto form :
       {AggregationForm::Literal, AggregationForm::SelfNormalized,
        AggregationForm::UpdateForm}) {
    auto config = tiny_config(11);
    config.hfl.aggregation = form;
    auto built = build_sim(config);
    sampling::FullParticipationSampler sampler;  // q=1: every form is stable
    const auto metrics = built.sim->run(sampler, 20);
    EXPECT_FALSE(metrics.empty());
    for (const auto& p : metrics.points()) {
      EXPECT_TRUE(std::isfinite(p.test_loss));
    }
  }
}

TEST(Simulator, AggregationFormsCoincideAtFullParticipation) {
  // With q = 1 everywhere, all three HT forms reduce to the plain average
  // of the participating devices' models.
  auto config = tiny_config(12);
  config.hfl.participation = 1.0;
  config.horizon = 15;
  std::vector<MetricsRecorder> results;
  for (const auto form :
       {AggregationForm::Literal, AggregationForm::SelfNormalized,
        AggregationForm::UpdateForm}) {
    auto run_config = config;
    run_config.hfl.aggregation = form;
    auto built = build_sim(run_config);
    sampling::FullParticipationSampler sampler;
    results.push_back(built.sim->run(sampler, config.horizon));
  }
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].points().size(), results[0].points().size());
    for (std::size_t i = 0; i < results[0].points().size(); ++i) {
      EXPECT_NEAR(results[v].points()[i].test_accuracy,
                  results[0].points()[i].test_accuracy, 1e-6);
    }
  }
}

TEST(Simulator, HtAggregationIsUnbiasedMonteCarlo) {
  // Lemma 1: E[w_edge | Q] equals the plain average of the per-device local
  // models. Setup is made deterministic apart from the Bernoulli draws:
  // one edge, each device owns a single unique example (so its minibatches,
  // and hence its local model, are fixed given the run seed), and only
  // `sampling_seed` varies across trials.
  data::SyntheticGenerator gen(data::SyntheticSpec::mnist_like(), 5);
  common::Rng data_rng(6);
  const data::Dataset train = gen.generate_uniform(4, data_rng);
  const data::Dataset test = gen.generate_uniform(16, data_rng);
  data::Partition partition = {{0}, {1}, {2}, {3}};
  const auto schedule = mobility::MobilitySchedule(1, 4, 1, {0, 0, 0, 0});

  auto factory = [] {
    nn::Sequential model;
    model.add(std::make_unique<nn::Flatten>())
        .add(std::make_unique<nn::Dense>(144, 10));
    return model;
  };

  HflOptions options;
  options.local_epochs = 1;
  options.cloud_interval = 1;
  options.batch_size = 2;
  options.learning_rate = 0.1;
  options.participation = 0.75;  // q = 0.75 each; P(no participant) ~ 0.4%
  options.aggregation = AggregationForm::Literal;
  options.seed = 11;

  // Reference: full participation -> global model is the exact average.
  std::vector<float> reference;
  {
    HflSimulator sim(train, test, partition, schedule, factory, options);
    sampling::FullParticipationSampler full;
    sim.run(full, 1);
    reference = sim.global_parameters();
  }

  const std::size_t trials = 400;
  std::vector<double> mean_params;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    HflOptions trial_options = options;
    trial_options.sampling_seed = 1000 + trial;
    HflSimulator sim(train, test, partition, schedule, factory, trial_options);
    sampling::UniformSampler uniform;
    sim.run(uniform, 1);
    const auto& params = sim.global_parameters();
    if (mean_params.empty()) mean_params.assign(params.size(), 0.0);
    for (std::size_t j = 0; j < params.size(); ++j) mean_params[j] += params[j];
  }
  for (auto& value : mean_params) value /= static_cast<double>(trials);

  // Compare on aggregate statistics (per-parameter MC noise is sizeable).
  double diff = 0.0, scale = 0.0;
  for (std::size_t j = 0; j < reference.size(); ++j) {
    diff += std::abs(mean_params[j] - reference[j]);
    scale += std::abs(reference[j]);
  }
  EXPECT_LT(diff / scale, 0.08) << "relative L1 deviation of the MC mean";
}

TEST(Simulator, SamplingSeedVariesOnlyBernoulliDraws) {
  auto config = tiny_config(19);
  auto artifacts = build_experiment(config);
  HflOptions a = config.hfl;
  a.seed = config.seed;
  a.sampling_seed = 100;
  HflOptions b = a;
  b.sampling_seed = 200;
  HflSimulator sim_a(artifacts.train, artifacts.test, artifacts.partition,
                     artifacts.schedule, make_model_factory(config), a);
  HflSimulator sim_b(artifacts.train, artifacts.test, artifacts.partition,
                     artifacts.schedule, make_model_factory(config), b);
  // Identical before any sampling happens...
  ASSERT_EQ(sim_a.global_parameters(), sim_b.global_parameters());
  sampling::UniformSampler sa, sb;
  const auto ma = sim_a.run(sa, 10);
  const auto mb = sim_b.run(sb, 10);
  // ...but different sampling realisations afterwards.
  bool differs = false;
  for (std::size_t i = 0; i < ma.points().size(); ++i) {
    differs |= ma.points()[i].test_accuracy != mb.points()[i].test_accuracy;
  }
  EXPECT_TRUE(differs);
}

TEST(Simulator, EdgeCapacityDerivation) {
  const auto config = tiny_config(13);
  auto built = build_sim(config);
  // participation * devices / edges = 0.5 * 12 / 3 = 2.
  EXPECT_DOUBLE_EQ(built.sim->edge_capacity(0), 2.0);
  EXPECT_DOUBLE_EQ(built.sim->edge_capacity(2), 2.0);
}

TEST(Simulator, FederationInfoHistogramsMatchPartition) {
  const auto config = tiny_config(15);
  auto built = build_sim(config);
  const FederationInfo info = built.sim->federation_info();
  EXPECT_EQ(info.num_devices, 12u);
  EXPECT_EQ(info.num_edges, 3u);
  EXPECT_EQ(info.num_classes, 10u);
  ASSERT_EQ(info.class_histograms.size(), 12u);
  for (std::size_t m = 0; m < 12; ++m) {
    std::size_t total = std::accumulate(info.class_histograms[m].begin(),
                                        info.class_histograms[m].end(), 0ul);
    EXPECT_EQ(total, built.artifacts.partition[m].size());
  }
}

TEST(Simulator, ConstructorValidation) {
  const auto config = tiny_config(16);
  auto artifacts = build_experiment(config);
  HflOptions bad = config.hfl;
  bad.local_epochs = 0;
  EXPECT_THROW(HflSimulator(artifacts.train, artifacts.test, artifacts.partition,
                            artifacts.schedule, make_model_factory(config), bad),
               std::invalid_argument);
  // Partition with wrong device count.
  data::Partition short_partition(artifacts.partition.begin(),
                                  artifacts.partition.begin() + 5);
  EXPECT_THROW(HflSimulator(artifacts.train, artifacts.test, short_partition,
                            artifacts.schedule, make_model_factory(config),
                            config.hfl),
               std::invalid_argument);
}

TEST(Simulator, GlobalGradNormTracksTheoremLhs) {
  auto config = tiny_config(20);
  config.hfl.track_global_grad_norm_examples = 64;
  config.horizon = 60;
  auto built = build_sim(config);
  sampling::UniformSampler sampler;
  const auto metrics = built.sim->run(sampler, config.horizon);
  ASSERT_GE(metrics.points().size(), 3u);
  double initial = metrics.points().front().global_grad_sq_norm;
  EXPECT_GT(initial, 0.0);
  for (const auto& p : metrics.points()) {
    EXPECT_TRUE(std::isfinite(p.global_grad_sq_norm));
    EXPECT_GE(p.global_grad_sq_norm, 0.0);
  }
  // Training must shrink the average gradient norm versus the untrained
  // model (the convergence Theorem 1 quantifies).
  double late = 0.0;
  const auto& points = metrics.points();
  for (std::size_t i = points.size() - 3; i < points.size(); ++i) {
    late += points[i].global_grad_sq_norm;
  }
  EXPECT_LT(late / 3.0, initial);
}

TEST(Simulator, GradNormTrackingOffByDefault) {
  const auto config = tiny_config(21);
  auto built = build_sim(config);
  sampling::UniformSampler sampler;
  const auto metrics = built.sim->run(sampler, 10);
  for (const auto& p : metrics.points()) {
    EXPECT_DOUBLE_EQ(p.global_grad_sq_norm, 0.0);
  }
}

/// One sampler call, as the engine made it.
struct SamplerCall {
  enum class Kind { Decide, Observe };
  Kind kind = Kind::Decide;
  std::size_t t = 0;
  std::size_t edge = 0;
  std::uint32_t device = 0;  // Observe only
  bool operator==(const SamplerCall&) const = default;
};

/// Wraps a registry sampler and logs every edge_probabilities and
/// observe_training call in order; as a RunObserver it also logs each edge
/// round's arrivals and how many decisions preceded its reduction.
class CallRecordingSampler final : public Sampler, public obs::RunObserver {
 public:
  struct Reduced {
    std::size_t t = 0;
    std::size_t edge = 0;
    bool outage = false;
    std::vector<std::uint64_t> arrivals;
    std::size_t decisions_before = 0;  // in the log when it was reduced
  };

  explicit CallRecordingSampler(SamplerPtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  void bind(const FederationInfo& info) override { inner_->bind(info); }
  std::vector<double> edge_probabilities(const EdgeSamplingContext& ctx) override {
    calls_.push_back({SamplerCall::Kind::Decide, ctx.t, ctx.edge, 0});
    ++decisions_;
    return inner_->edge_probabilities(ctx);
  }
  void observe_training(const TrainingObservation& obs) override {
    calls_.push_back({SamplerCall::Kind::Observe, obs.t, obs.edge, obs.device});
    inner_->observe_training(obs);
  }
  void on_cloud_round(std::size_t t) override { inner_->on_cloud_round(t); }
  bool needs_oracle() const override { return inner_->needs_oracle(); }

  void on_edge_aggregated(const obs::EdgeAggregatedEvent& event) override {
    reduced_.push_back({event.t, event.edge, event.faults.edge_outage,
                        event.faults.survivors, decisions_});
  }

  const std::vector<SamplerCall>& calls() const noexcept { return calls_; }
  const std::vector<Reduced>& reduced() const noexcept { return reduced_; }

 private:
  SamplerPtr inner_;
  std::vector<SamplerCall> calls_;
  std::vector<Reduced> reduced_;
  std::size_t decisions_ = 0;
};

TEST(Simulator, SamplersObserveEachStepAfterItsLastDecision) {
  // Every edge of a step decides before any of the step's observations
  // reach the sampler, which then receives them in edge order and
  // sampled-device order, arrivals only — the same calls at any thread
  // count, however the step's training sections fall.
  const ExperimentConfig config = test::multi_flush_world(61);
  const ExperimentArtifacts artifacts = build_experiment(config);
  std::vector<std::vector<SamplerCall>> logs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    HflOptions options = config.hfl;
    options.seed = config.seed;
    options.parallel.threads = threads;
    HflSimulator simulator(artifacts.train, artifacts.test, artifacts.partition,
                           artifacts.schedule, make_model_factory(config), options);
    CallRecordingSampler sampler(core::make_sampler("mach"));
    simulator.set_observer(&sampler);
    simulator.run(sampler, config.horizon);
    simulator.set_observer(nullptr);

    const auto& calls = sampler.calls();
    std::size_t outages = 0;
    std::size_t reduced_mid_step = 0;  // reductions before the step's last decision
    std::size_t decisions = 0;
    std::size_t observations = 0;
    std::size_t next_call = 0;
    std::size_t next_reduced = 0;
    for (std::size_t t = 0; t < config.horizon; ++t) {
      SCOPED_TRACE("t=" + std::to_string(t));
      // The step's decisions come first, one per edge round that ran.
      const std::size_t first_decision = next_call;
      while (next_call < calls.size() && calls[next_call].t == t &&
             calls[next_call].kind == SamplerCall::Kind::Decide) {
        ++next_call;
      }
      const std::size_t step_decisions = next_call - first_decision;
      decisions += step_decisions;
      // Then its observations: exactly each reduced edge's arrivals, in edge
      // order and, within an edge, in the order of the edge's device list.
      const auto per_edge = artifacts.schedule.devices_per_edge(t);
      std::size_t rounds = 0;
      std::size_t rounds_run = 0;
      std::size_t last_edge = 0;
      for (; next_reduced < sampler.reduced().size() &&
             sampler.reduced()[next_reduced].t == t;
           ++next_reduced) {
        const auto& reduced = sampler.reduced()[next_reduced];
        if (rounds++ > 0) {
          EXPECT_GT(reduced.edge, last_edge);
        }
        last_edge = reduced.edge;
        if (reduced.decisions_before < decisions) ++reduced_mid_step;
        if (reduced.outage) {
          ++outages;
          continue;
        }
        ++rounds_run;
        const auto& devices = per_edge[reduced.edge];
        std::ptrdiff_t last_position = -1;
        for (const std::uint64_t device : reduced.arrivals) {
          ASSERT_LT(next_call, calls.size());
          const SamplerCall& call = calls[next_call++];
          ASSERT_TRUE(call.kind == SamplerCall::Kind::Observe)
              << "edge " << call.edge << " decided after an observation";
          EXPECT_EQ(call.t, t);
          EXPECT_EQ(call.edge, reduced.edge);
          EXPECT_EQ(call.device, device);
          const std::ptrdiff_t position =
              std::find(devices.begin(), devices.end(), call.device) - devices.begin();
          EXPECT_GT(position, last_position);
          last_position = position;
          ++observations;
        }
      }
      EXPECT_EQ(step_decisions, rounds_run);
    }
    EXPECT_EQ(next_call, calls.size());  // nothing else was called
    EXPECT_GT(observations, 0u);
    EXPECT_EQ(outages, 2u);  // edge 0 at steps 2 and 3
    // Several sections per step: some edge reduced before the step's last
    // decision (every edge, on the serial engine).
    if (threads < 4) {
      EXPECT_GT(reduced_mid_step, 0u);
    }
    logs.push_back(calls);
  }
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_EQ(logs[2], logs[0]);
}

}  // namespace
}  // namespace mach::hfl
