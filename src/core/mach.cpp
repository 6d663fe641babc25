#include "core/mach.h"

#include <algorithm>
#include <stdexcept>

#include "ckpt/bytes.h"
#include "obs/span_profiler.h"
#include "sampling/budget.h"

namespace mach::core {

std::vector<double> edge_sampling_probabilities(std::span<const double> g_squared,
                                                double capacity,
                                                const TransferFunction* transfer) {
  const std::size_t n = g_squared.size();
  if (n == 0) return {};
  const double budget = std::clamp(capacity, 0.0, static_cast<double>(n));

  double total = 0.0;
  for (double g : g_squared) total += std::max(g, 0.0);

  if (transfer == nullptr) {
    // Ablation path: raw Eq. 16 scores through budget water-filling.
    std::vector<double> weights(g_squared.begin(), g_squared.end());
    return sampling::budgeted_probabilities(weights, budget);
  }

  // Eq. 16: virtual probabilities (may exceed 1, that is fine — the transfer
  // function squashes them).
  std::vector<double> smoothed(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double virtual_q =
        total > 0.0 ? budget * std::max(g_squared[i], 0.0) / total
                    : budget / static_cast<double>(n);
    // Eq. 17.
    smoothed[i] = (*transfer)(virtual_q);
  }
  // Eq. 18: renormalise the smoothed scores onto the budget. S(.) >= 1 keeps
  // every ratio near uniform, so the per-device cap of 1 rarely binds; the
  // water-filling handles the corner cases (budget close to |M_n^t|).
  return sampling::budgeted_probabilities(smoothed, budget);
}

MachSampler::MachSampler(MachOptions options)
    : options_(options), transfer_(options.transfer) {}

void MachSampler::bind(const hfl::FederationInfo& info) {
  estimator_.emplace(info.num_devices, options_.ucb);
  transfer_ = TransferFunction(options_.transfer);
}

std::vector<double> MachSampler::edge_probabilities(
    const hfl::EdgeSamplingContext& ctx) {
  if (!estimator_) throw std::logic_error("MachSampler: bind() not called");
  const obs::SpanGuard span("mach_weights", static_cast<std::int64_t>(ctx.t),
                            static_cast<std::int64_t>(ctx.edge));
  // Reused scratch: the per-round estimate gather allocates nothing in
  // steady state (the returned probability vector is the caller's).
  g2_scratch_.resize(ctx.devices.size());
  for (std::size_t i = 0; i < ctx.devices.size(); ++i) {
    g2_scratch_[i] = estimator_->estimate(ctx.devices[i]);
  }
  return edge_sampling_probabilities(g2_scratch_, ctx.capacity,
                                     options_.use_transfer ? &transfer_ : nullptr);
}

void MachSampler::observe_training(const hfl::TrainingObservation& obs) {
  if (!estimator_) return;
  estimator_->record(obs.device, obs.local_grad_sq_norms);
}

void MachSampler::on_cloud_round(std::size_t t) {
  const obs::SpanGuard span("mach_ucb_refresh", static_cast<std::int64_t>(t));
  if (estimator_) estimator_->on_cloud_round(t);
  transfer_.advance_round();
}

bool MachSampler::introspect(obs::SamplerIntrospection& out) const {
  if (!estimator_) return false;
  const std::size_t devices = estimator_->num_devices();
  out.g_squared.resize(devices);
  out.buffer_sizes.resize(devices);
  out.participations.resize(devices);
  for (std::size_t m = 0; m < devices; ++m) {
    const auto device = static_cast<std::uint32_t>(m);
    out.g_squared[m] = estimator_->estimate(device);
    out.buffer_sizes[m] = estimator_->buffer_size(device);
    out.participations[m] = estimator_->participations(device);
  }
  return true;
}

void MachSampler::save_state(ckpt::ByteWriter& out) const {
  out.u8(2);  // blob version (v2: SoA estimator accumulators)
  out.u64(transfer_.rounds_seen());
  out.boolean(estimator_.has_value());
  if (estimator_) estimator_->save_state(out);
}

void MachSampler::load_state(ckpt::ByteReader& in) {
  if (in.u8() != 2) {
    throw ckpt::CorruptPayload("MachSampler: unknown state version");
  }
  transfer_.set_rounds_seen(static_cast<std::size_t>(in.u64()));
  const bool had_estimator = in.boolean();
  if (had_estimator != estimator_.has_value()) {
    throw ckpt::CorruptPayload("MachSampler: estimator presence mismatch");
  }
  if (estimator_) estimator_->load_state(in);
}

MachOracleSampler::MachOracleSampler(MachOptions options)
    : options_(options), transfer_(options.transfer) {}

std::vector<double> MachOracleSampler::edge_probabilities(
    const hfl::EdgeSamplingContext& ctx) {
  if (ctx.oracle_grad_sq_norms.size() != ctx.devices.size()) {
    throw std::logic_error("MachOracleSampler: oracle norms missing");
  }
  return edge_sampling_probabilities(ctx.oracle_grad_sq_norms, ctx.capacity,
                                     options_.use_transfer ? &transfer_ : nullptr);
}

void MachOracleSampler::on_cloud_round(std::size_t /*t*/) {
  transfer_.advance_round();
}

void MachOracleSampler::save_state(ckpt::ByteWriter& out) const {
  out.u8(1);  // blob version
  // The oracle probes gradient norms fresh every step; the warmup position
  // of the transfer function is the only state that carries across steps.
  out.u64(transfer_.rounds_seen());
}

void MachOracleSampler::load_state(ckpt::ByteReader& in) {
  if (in.u8() != 1) {
    throw ckpt::CorruptPayload("MachOracleSampler: unknown state version");
  }
  transfer_.set_rounds_seen(static_cast<std::size_t>(in.u64()));
}

}  // namespace mach::core
