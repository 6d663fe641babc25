// Sampler conformance suite: every registered sampler (core/registry.h) is
// held to the same four contracts through the shared harness world
// (sampler_harness.h):
//
//   1. probabilities are valid and budget-feasible (sum q <= K_n, Eq. 11/12);
//   2. the q it emits keep the Horvitz-Thompson edge aggregate unbiased, with
//      the inverse-propensity correction, under injected dropouts (the PR 4
//      property, now a per-sampler obligation);
//   3. full runs are bitwise identical at any --threads value;
//   4. save_state/load_state round-trips resume the q stream bit-for-bit.
//
// A sampler added to the registry is automatically instantiated here; there
// is no opt-out list to forget to update.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ckpt/bytes.h"
#include "core/registry.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "sampling/sampler_harness.h"

namespace mach {
namespace {

using test::HarnessWorld;

class SamplerConformance : public ::testing::TestWithParam<std::string> {
 protected:
  hfl::SamplerPtr make_bound() const {
    auto sampler = core::make_sampler(GetParam());
    sampler->bind(HarnessWorld{}.info());
    return sampler;
  }

  const core::SamplerInfo& registry_entry() const {
    for (const core::SamplerInfo& info : core::sampler_registry()) {
      if (GetParam() == info.name) return info;
    }
    throw std::logic_error("unregistered param " + GetParam());
  }

  /// Per-edge Eq. 11/12 contract; false for MACH-G (federation-wide budget)
  /// and the full-participation ablation (no budget at all).
  bool edge_budgeted() const { return registry_entry().edge_budgeted; }
};

TEST_P(SamplerConformance, ProbabilitiesAreValidAndBudgetFeasible) {
  const HarnessWorld world;
  auto sampler = make_bound();
  common::Rng rng(0xC0Fu);
  for (std::size_t t = 0; t < 8; ++t) {
    double step_total = 0.0, step_capacity = 0.0;
    for (std::size_t edge = 0; edge < world.num_edges; ++edge) {
      const auto devices = world.members(t, edge);
      hfl::EdgeSamplingContext ctx;
      ctx.t = t;
      ctx.edge = edge;
      ctx.capacity = world.participation * static_cast<double>(devices.size());
      ctx.devices = devices;
      std::vector<double> oracle;
      if (sampler->needs_oracle()) {
        oracle = world.oracle_norms(devices, t);
        ctx.oracle_grad_sq_norms = oracle;
      }
      const auto q = sampler->edge_probabilities(ctx);
      ASSERT_EQ(q.size(), devices.size())
          << "t=" << t << " edge=" << edge;
      double total = 0.0;
      for (const double p : q) {
        EXPECT_GE(p, 0.0) << "t=" << t << " edge=" << edge;
        EXPECT_LE(p, 1.0) << "t=" << t << " edge=" << edge;
        ASSERT_TRUE(std::isfinite(p));
        total += p;
      }
      if (!devices.empty()) {
        EXPECT_GT(total, 0.0) << "no participation mass at t=" << t;
      }
      step_total += total;
      step_capacity += ctx.capacity;
      if (edge_budgeted()) {
        EXPECT_LE(total, ctx.capacity + 1e-9)
            << "budget exceeded at t=" << t << " edge=" << edge;
      }
      // Feed observations so stateful samplers shape later steps.
      for (std::size_t i = 0; i < devices.size(); ++i) {
        if (!rng.bernoulli(std::clamp(q[i], 0.0, 1.0))) continue;
        hfl::TrainingObservation obs;
        obs.t = t;
        obs.device = devices[i];
        obs.edge = edge;
        obs.local_grad_sq_norms = {0.4, 0.3};
        obs.mean_loss = 1.0;
        sampler->observe_training(obs);
      }
    }
    // Globally-budgeted samplers (MACH-G) must still bound the whole
    // federation's expected participation by the summed edge budgets.
    if (!edge_budgeted() && GetParam() != "full") {
      EXPECT_LE(step_total, step_capacity + 1e-9)
          << "global budget exceeded at t=" << t;
    }
    if (t % world.cloud_interval == 0) sampler->on_cloud_round(t);
  }
}

TEST_P(SamplerConformance, HtEstimateUnbiasedUnderFaults) {
  // Drive the sampler a few steps so experience-driven strategies produce
  // their real (non-uniform) q, then Monte-Carlo the HT edge aggregate with
  // the inverse-propensity fault correction against the exact mean. The
  // engine clamps q into [1e-3, 1] before drawing; the harness mirrors that.
  const HarnessWorld world;
  auto sampler = make_bound();
  common::Rng drive_rng(0x11Du);
  test::drive_steps(*sampler, world, 4, drive_rng);

  const std::size_t t = 4;
  const auto devices = world.members(t, /*edge=*/0);
  hfl::EdgeSamplingContext ctx;
  ctx.t = t;
  ctx.edge = 0;
  ctx.capacity = world.participation * static_cast<double>(devices.size());
  ctx.devices = devices;
  std::vector<double> oracle;
  if (sampler->needs_oracle()) {
    oracle = world.oracle_norms(devices, t);
    ctx.oracle_grad_sq_norms = oracle;
  }
  auto q = sampler->edge_probabilities(ctx);
  ASSERT_EQ(q.size(), devices.size());
  for (double& p : q) p = std::clamp(p, 1e-3, 1.0);

  // Heterogeneous per-device values with a known exact average.
  common::Rng value_rng(0xA7Eu);
  std::vector<double> values(devices.size());
  double exact = 0.0;
  for (double& v : values) {
    v = value_rng.normal(value_rng.uniform(-2.0, 2.0), 1.5);
    exact += v;
  }
  exact /= static_cast<double>(devices.size());

  const fault::FaultSchedule schedule = fault::FaultSchedule::parse(
      "dropout:p=0.3;straggler:p=0.4,delay=1.5,timeout=1,backoff=0.5,"
      "retries=1;seed=41");
  const fault::FaultInjector injector(schedule, 1);

  common::Rng mc_rng(0x5EEDu);
  const std::size_t trials = 20000;
  const double inv_m = 1.0 / static_cast<double>(devices.size());
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    double x_hat = 0.0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (!mc_rng.bernoulli(q[i])) continue;
      const fault::DeviceFaultDecision fate =
          injector.device_fate(trial, 0, devices[i]);
      if (!fate.arrived) continue;
      const double q_effective =
          q[i] * injector.arrival_probability(0, devices[i]);
      x_hat += inv_m * values[i] / q_effective;
    }
    sum += x_hat;
    sum_sq += x_hat * x_hat;
  }
  const double n = static_cast<double>(trials);
  const double mean = sum / n;
  const double variance = (sum_sq - sum * sum / n) / (n - 1.0);
  const double stderr_ = std::sqrt(variance / n);
  EXPECT_NEAR(mean, exact, 4.0 * stderr_)
      << "bias " << mean - exact << " vs stderr " << stderr_;
}

TEST_P(SamplerConformance, RunsBitwiseIdenticalAcrossThreadCounts) {
  // Tiny end-to-end run through the real simulator at 1/2/4 worker threads;
  // the metric stream (accuracies, losses, participant counts) must be
  // bitwise identical — samplers run on the coordinator, so any divergence
  // means order-dependent state leaked into the parallel section.
  hfl::ExperimentConfig config = hfl::ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 8;
  config.num_edges = 2;
  config.train_per_device = 16;
  config.test_examples = 60;
  config.mlp_hidden = 8;
  config.hfl.local_epochs = 1;
  config.hfl.participation = 0.6;
  config.horizon = 4;
  config.num_stations = 6;
  config.num_hotspots = 2;
  config = config.with_seed(321);

  std::vector<hfl::MetricsRecorder> runs;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    config.hfl.parallel.threads = threads;
    auto sampler = core::make_sampler(GetParam());
    runs.push_back(hfl::run_experiment(config, *sampler).metrics);
  }
  const auto& reference = runs.front().points();
  ASSERT_FALSE(reference.empty());
  for (std::size_t run = 1; run < runs.size(); ++run) {
    const auto& points = runs[run].points();
    ASSERT_EQ(points.size(), reference.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].t, reference[i].t);
      EXPECT_EQ(points[i].test_accuracy, reference[i].test_accuracy)
          << "accuracy drift at point " << i << " with threads run " << run;
      EXPECT_EQ(points[i].test_loss, reference[i].test_loss)
          << "loss drift at point " << i << " with threads run " << run;
      EXPECT_EQ(points[i].participants, reference[i].participants)
          << "participant drift at point " << i << " with threads run " << run;
    }
  }
}

TEST_P(SamplerConformance, CheckpointRoundTripResumesBitForBit) {
  // Drive to a midpoint between cloud rounds (step 5's observations are
  // still buffered, so the snapshot carries experience not yet folded),
  // snapshot, restore into a freshly constructed sampler (bind first,
  // exactly like the engine's resume path), then feed both the identical
  // continuation and demand bitwise-equal q streams.
  const HarnessWorld world;
  ASSERT_EQ(world.cloud_interval, 2u);
  auto original = make_bound();
  common::Rng warmup_rng(0xBEEFu);
  test::drive_steps(*original, world, 6, warmup_rng);

  ckpt::ByteWriter writer;
  original->save_state(writer);

  auto restored = make_bound();
  ckpt::ByteReader reader(writer.data());
  restored->load_state(reader);

  common::Rng rng_a(0x99u);
  common::Rng rng_b(0x99u);
  for (std::size_t t = 6; t < 10; ++t) {
    const auto q_original = test::drive_step(*original, world, t, rng_a);
    const auto q_restored = test::drive_step(*restored, world, t, rng_b);
    ASSERT_EQ(q_original.size(), q_restored.size()) << "t=" << t;
    for (std::size_t i = 0; i < q_original.size(); ++i) {
      EXPECT_EQ(q_original[i], q_restored[i])
          << "q diverged at t=" << t << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, SamplerConformance,
    ::testing::ValuesIn(core::registered_samplers()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace mach
