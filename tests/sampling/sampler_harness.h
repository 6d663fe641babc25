// Reusable sampler conformance harness: a tiny deterministic federation that
// any hfl::Sampler can be driven through without the full simulator, used by
// test_conformance.cpp to hold every registered sampler to the same
// contract — budget-feasible probabilities, Horvitz-Thompson compatibility
// under faults, thread-count determinism and checkpoint round-trips.
//
// The world is mobility-shaped on purpose: half the devices shuffle to a new
// edge every step (exercising churn/cluster logic), the rest stay put, and
// the label histograms are deterministically Non-IID so distribution-driven
// samplers (class_balance, emd, mobility_cluster) produce non-uniform
// weights worth checking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hfl/sampler.h"

namespace mach::test {

struct HarnessWorld {
  std::size_t num_devices = 12;
  std::size_t num_edges = 3;
  std::size_t num_classes = 4;
  std::size_t cloud_interval = 2;
  double participation = 0.5;

  /// Non-IID label histograms: every device leans on class d % num_classes
  /// with a deterministic pseudo-random background over the others.
  hfl::FederationInfo info() const {
    hfl::FederationInfo info;
    info.num_devices = num_devices;
    info.num_edges = num_edges;
    info.num_classes = num_classes;
    info.cloud_interval = cloud_interval;
    info.class_histograms.resize(num_devices);
    for (std::size_t d = 0; d < num_devices; ++d) {
      auto& histogram = info.class_histograms[d];
      histogram.resize(num_classes);
      for (std::size_t c = 0; c < num_classes; ++c) {
        histogram[c] = 2 + (d * 7 + c * 3) % 9;
      }
      histogram[d % num_classes] += 40;
    }
    return info;
  }

  /// Edge of device d at step t. Devices in the lower half migrate one edge
  /// per step (high churn); the upper half never moves.
  std::size_t edge_of(std::size_t d, std::size_t t) const {
    if (d < num_devices / 2) return (d + t) % num_edges;
    return d % num_edges;
  }

  /// M_n^t in ascending device order, exactly like the engine's roster.
  std::vector<std::uint32_t> members(std::size_t t, std::size_t edge) const {
    std::vector<std::uint32_t> out;
    for (std::size_t d = 0; d < num_devices; ++d) {
      if (edge_of(d, t) == edge) out.push_back(static_cast<std::uint32_t>(d));
    }
    return out;
  }

  /// Deterministic stand-in for the probed squared gradient norms (MACH-P).
  std::vector<double> oracle_norms(std::span<const std::uint32_t> devices,
                                   std::size_t t) const {
    std::vector<double> norms;
    norms.reserve(devices.size());
    for (const std::uint32_t d : devices) {
      norms.push_back(0.5 + 0.1 * static_cast<double>(d) +
                      0.01 * static_cast<double>(t));
    }
    return norms;
  }
};

/// Drives one full coordinator step in the engine's call order:
/// edge_probabilities per edge in index order, with Bernoulli participation
/// draws in device order after each decision; then, after the step's last
/// decision, observe_training for every participant in edge order and then
/// device order (DESIGN §8's fourth invariant); then on_cloud_round at the
/// T_g boundary. Returns the concatenated q vectors of all edges, for
/// bitwise comparison.
inline std::vector<double> drive_step(hfl::Sampler& sampler,
                                      const HarnessWorld& world, std::size_t t,
                                      common::Rng& rng) {
  std::vector<double> all_q;
  std::vector<hfl::TrainingObservation> observations;
  for (std::size_t edge = 0; edge < world.num_edges; ++edge) {
    const auto devices = world.members(t, edge);
    hfl::EdgeSamplingContext ctx;
    ctx.t = t;
    ctx.edge = edge;
    ctx.capacity =
        world.participation * static_cast<double>(devices.size());
    ctx.devices = devices;
    std::vector<double> oracle;
    if (sampler.needs_oracle()) {
      oracle = world.oracle_norms(devices, t);
      ctx.oracle_grad_sq_norms = oracle;
    }
    const auto q = sampler.edge_probabilities(ctx);
    for (std::size_t i = 0; i < q.size() && i < devices.size(); ++i) {
      if (!rng.bernoulli(std::clamp(q[i], 0.0, 1.0))) continue;
      hfl::TrainingObservation obs;
      obs.t = t;
      obs.device = devices[i];
      obs.edge = edge;
      const double base = 0.3 + 0.2 * static_cast<double>(devices[i] % 5);
      obs.local_grad_sq_norms = {base, base * 0.9, base * 0.8};
      obs.mean_loss =
          1.0 + 0.1 * static_cast<double>((devices[i] * 13 + t) % 7);
      observations.push_back(std::move(obs));
    }
    all_q.insert(all_q.end(), q.begin(), q.end());
  }
  for (const auto& obs : observations) sampler.observe_training(obs);
  if (t % world.cloud_interval == 0) sampler.on_cloud_round(t);
  return all_q;
}

/// drive_step over [0, steps); returns every step's concatenated q.
inline std::vector<std::vector<double>> drive_steps(hfl::Sampler& sampler,
                                                    const HarnessWorld& world,
                                                    std::size_t steps,
                                                    common::Rng& rng) {
  std::vector<std::vector<double>> history;
  history.reserve(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    history.push_back(drive_step(sampler, world, t, rng));
  }
  return history;
}

}  // namespace mach::test
