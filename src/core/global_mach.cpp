#include "core/global_mach.h"

#include <stdexcept>

namespace mach::core {

void GlobalMachSampler::bind(const hfl::FederationInfo& info) {
  MachSampler::bind(info);
  num_edges_ = std::max<std::size_t>(info.num_edges, 1);
  global_q_.assign(info.num_devices, 0.0);
  cached_t_.reset();
}

void GlobalMachSampler::refresh_global_strategy(std::size_t t, double edge_capacity) {
  std::vector<double> g_squared(global_q_.size());
  for (std::size_t m = 0; m < g_squared.size(); ++m) {
    g_squared[m] = estimator_->estimate(static_cast<std::uint32_t>(m));
  }
  // Federation-wide budget: every edge contributes its channel capacity.
  const double total_capacity = edge_capacity * static_cast<double>(num_edges_);
  global_q_ = edge_sampling_probabilities(
      g_squared, total_capacity, options_.use_transfer ? &transfer_ : nullptr);
  cached_t_ = t;
}

std::vector<double> GlobalMachSampler::edge_probabilities(
    const hfl::EdgeSamplingContext& ctx) {
  if (!estimator_) throw std::logic_error("GlobalMachSampler: bind() not called");
  if (!cached_t_ || *cached_t_ != ctx.t) {
    refresh_global_strategy(ctx.t, ctx.capacity);
  }
  std::vector<double> q(ctx.devices.size());
  for (std::size_t i = 0; i < ctx.devices.size(); ++i) {
    q[i] = global_q_.at(ctx.devices[i]);
  }
  return q;
}

void GlobalMachSampler::on_cloud_round(std::size_t t) {
  MachSampler::on_cloud_round(t);
  cached_t_.reset();
}

void GlobalMachSampler::load_state(ckpt::ByteReader& in) {
  MachSampler::load_state(in);
  cached_t_.reset();
}

}  // namespace mach::core
