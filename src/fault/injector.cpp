#include "fault/injector.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "obs/span_profiler.h"

namespace mach::fault {

namespace {
// Domain tags keeping the device-fate and cloud-loss hash streams disjoint.
constexpr std::uint64_t kDeviceDomain = 0xFA01;
constexpr std::uint64_t kCloudDomain = 0xFA02;
// Stream id mixed with the run seed when the schedule has no pinned seed.
constexpr std::uint64_t kScheduleStream = 0xFA17;
}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule, std::uint64_t run_seed)
    : schedule_(std::move(schedule)),
      seed_(schedule_.seed != 0 ? schedule_.seed
                                : common::split_seed(run_seed, kScheduleStream)),
      enabled_(!schedule_.empty()) {}

std::uint64_t FaultInjector::event_seed(std::uint64_t domain, std::uint64_t a,
                                        std::uint64_t b,
                                        std::uint64_t c) const noexcept {
  return common::split_seed(
      common::split_seed(common::split_seed(common::split_seed(seed_, domain), a), b),
      c);
}

double FaultInjector::edge_timeout(std::size_t edge) const noexcept {
  for (const EdgeTimeout& entry : schedule_.edge_timeouts) {
    if (entry.edge == edge) return entry.timeout;
  }
  return schedule_.straggler.timeout;
}

bool FaultInjector::edge_out(std::size_t t, std::size_t edge) const noexcept {
  for (const EdgeOutage& outage : schedule_.outages) {
    if (outage.edge == edge && t >= outage.from_step && t < outage.to_step) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::dropout_targets(std::uint32_t device) const noexcept {
  if (schedule_.dropout.devices.empty()) return true;
  return std::binary_search(schedule_.dropout.devices.begin(),
                            schedule_.dropout.devices.end(), device);
}

DeviceFaultDecision FaultInjector::device_fate(std::size_t t, std::size_t edge,
                                               std::uint32_t device) const {
  const obs::SpanGuard span("fault_fate", static_cast<std::int64_t>(t), device);
  DeviceFaultDecision decision;
  common::Rng rng(event_seed(kDeviceDomain, t, edge, device));
  // Fixed draw order (dropout gate, straggler gate, initial delay) within
  // this event's private stream; arrival_probability mirrors it.
  if (schedule_.dropout.probability > 0.0 && dropout_targets(device) &&
      rng.bernoulli(schedule_.dropout.probability)) {
    decision.fate = DeviceFate::Dropped;
    decision.arrived = false;
    return decision;
  }
  const StragglerRule& straggler = schedule_.straggler;
  if (straggler.probability > 0.0 && rng.bernoulli(straggler.probability)) {
    const double initial = rng.exponential(1.0 / straggler.delay_mean);
    const double timeout = edge_timeout(edge);
    double attempt = initial;
    for (std::size_t k = 0; k <= straggler.max_retries; ++k) {
      decision.virtual_seconds += attempt;
      decision.delay_seconds = attempt;
      decision.retries = k;
      if (attempt <= timeout) {
        decision.fate = DeviceFate::StragglerArrived;
        return decision;
      }
      attempt *= straggler.backoff;
    }
    decision.fate = DeviceFate::StragglerTimedOut;
    decision.arrived = false;
    decision.retries = straggler.max_retries;
    return decision;
  }
  return decision;
}

bool FaultInjector::cloud_upload_lost(std::size_t t, std::size_t edge) const {
  if (schedule_.cloud_loss.probability <= 0.0) return false;
  common::Rng rng(event_seed(kCloudDomain, t, edge, 0));
  return rng.bernoulli(schedule_.cloud_loss.probability);
}

double FaultInjector::arrival_probability(std::size_t edge,
                                          std::uint32_t device) const {
  double survive_dropout = 1.0;
  if (schedule_.dropout.probability > 0.0 && dropout_targets(device)) {
    survive_dropout = 1.0 - schedule_.dropout.probability;
  }
  const StragglerRule& straggler = schedule_.straggler;
  double survive_straggle = 1.0;
  if (straggler.probability > 0.0) {
    // An attempt arrives iff initial_delay * backoff^k <= timeout for some
    // k <= R; the smallest attempted delay is initial * min(1, backoff^R).
    const double shrink = std::min(
        1.0, std::pow(straggler.backoff, static_cast<double>(straggler.max_retries)));
    const double threshold = edge_timeout(edge) / shrink;
    // expm1 for accuracy when the arrival rate is tiny (matches validate()).
    const double p_make_it = -std::expm1(-threshold / straggler.delay_mean);
    survive_straggle = 1.0 - straggler.probability + straggler.probability * p_make_it;
  }
  return survive_dropout * survive_straggle;
}

void FaultInjector::begin_run(obs::MetricsRegistry& registry) {
  if (!enabled_) return;
  dropouts_ = &registry.counter("fault_dropouts");
  straggler_arrivals_ = &registry.counter("fault_straggler_arrivals");
  straggler_timeouts_ = &registry.counter("fault_straggler_timeouts");
  retries_ = &registry.counter("fault_retries");
  updates_lost_ = &registry.counter("fault_updates_lost");
  outage_rounds_ = &registry.counter("fault_edge_outage_rounds");
  cloud_uploads_lost_ = &registry.counter("fault_cloud_uploads_lost");
}

bool FaultInjector::begin_round(std::size_t t, std::size_t edge,
                                obs::FaultSummary& summary) {
  summary.active = enabled_;
  summary.edge_outage = enabled_ && edge_out(t, edge);
  summary.num_dropped = summary.num_straggler_arrivals = 0;
  summary.num_straggler_timeouts = summary.num_retries = 0;
  summary.survivors.clear();
  summary.lost.clear();
  if (summary.edge_outage) outage_rounds_->add();
  return summary.edge_outage;
}

void FaultInjector::decide_round(std::size_t t, std::size_t edge,
                                 std::span<const std::uint32_t> devices,
                                 std::span<const std::uint32_t> sampled,
                                 std::vector<std::uint32_t>& arrivals,
                                 obs::FaultSummary& summary) {
  if (!enabled_) {
    arrivals.assign(sampled.begin(), sampled.end());
    return;
  }
  arrivals.clear();
  const obs::SpanGuard span("fault_fates", static_cast<std::int64_t>(t),
                            static_cast<std::int64_t>(edge));
  for (const std::uint32_t i : sampled) {
    const DeviceFaultDecision decision = device_fate(t, edge, devices[i]);
    summary.num_dropped += decision.fate == DeviceFate::Dropped;
    summary.num_straggler_arrivals += decision.fate == DeviceFate::StragglerArrived;
    summary.num_straggler_timeouts += decision.fate == DeviceFate::StragglerTimedOut;
    summary.num_retries += decision.retries;
    (decision.arrived ? summary.survivors : summary.lost).push_back(devices[i]);
    if (decision.arrived) arrivals.push_back(i);
  }
  dropouts_->add(summary.num_dropped);
  straggler_arrivals_->add(summary.num_straggler_arrivals);
  straggler_timeouts_->add(summary.num_straggler_timeouts);
  retries_->add(summary.num_retries);
  updates_lost_->add(summary.lost.size());
}

void FaultInjector::lost_uploads(
    std::size_t t, std::span<const std::vector<std::uint32_t>> per_edge,
    std::vector<std::uint64_t>& lost) {
  lost.clear();
  if (!enabled_) return;
  for (std::size_t edge = 0; edge < per_edge.size(); ++edge) {
    if (!per_edge[edge].empty() && cloud_upload_lost(t, edge)) lost.push_back(edge);
  }
  cloud_uploads_lost_->add(lost.size());
}

}  // namespace mach::fault
