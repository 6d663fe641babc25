#include "probes.h"

#include <algorithm>

namespace e2e {

ModelStats& Tracer::new_model(std::size_t layers) {
  auto model = std::make_unique<ModelStats>();
  model->layers.resize(layers);
  const std::lock_guard<std::mutex> lock(models_mutex_);
  models_.push_back(std::move(model));
  return *models_.back();
}

void Tracer::run_begin(Clock::time_point now) {
  mark_ = now;
  in_step_ = false;
  eval_pending_ = false;
}

void Tracer::step_begin(Clock::time_point now) {
  if (in_step_) close_step(now);
  in_step_ = true;
  mark_ = now;
  phase_.store(Mode::Probe, std::memory_order_relaxed);
}

void Tracer::decide_begin(Clock::time_point now) {
  totals_.probe += ns_between(mark_, now);
  phase_.store(Mode::Train, std::memory_order_relaxed);
}

void Tracer::decide_end(Clock::time_point begin, Clock::time_point now) {
  const double ns = ns_between(begin, now);
  totals_.decide += ns;
  decide_ns_.push_back(ns);
  mark_ = now;
}

void Tracer::edge_done(Clock::time_point now) {
  totals_.edge_round += ns_between(mark_, now);
  mark_ = now;
  phase_.store(Mode::Probe, std::memory_order_relaxed);
  // Workers have joined by the time the engine reports the edge, so every
  // model's running total is final for this round.
  double busiest = 0.0;
  for (const auto& model : models_) {
    busiest = std::max(busiest, model->train_ns - model->train_ns_mark);
    model->train_ns_mark = model->train_ns;
  }
  totals_.critical_train += busiest;
}

void Tracer::cloud_done(Clock::time_point now) {
  totals_.cloud += ns_between(mark_, now);
  mark_ = now;
  eval_pending_ = true;
}

void Tracer::eval_done(Clock::time_point now) {
  // The baseline evaluation runs before the first step.
  if (!eval_pending_ && in_step_) return;
  totals_.eval += ns_between(mark_, now);
  mark_ = now;
  eval_pending_ = false;
}

void Tracer::run_end(Clock::time_point now) {
  if (in_step_) close_step(now);
  in_step_ = false;
}

void Tracer::close_step(Clock::time_point now) {
  totals_.tail += ns_between(mark_, now);
  mark_ = now;
  eval_pending_ = false;
}

TimedLayer::TimedLayer(std::unique_ptr<mach::nn::Layer> inner, LayerStats& stats,
                       ModelStats& model, const Tracer& tracer)
    : inner_(std::move(inner)), stats_(stats), model_(model), tracer_(tracer) {
  stats_.kind = inner_->name();
  const std::vector<mach::nn::ParamRef> refs = inner_->params();
  stats_.weighted = !refs.empty();
  if (stats_.weighted) {
    weight_numel_ = static_cast<double>(refs.front().value->numel());
  }
}

void TimedLayer::set_training(bool training) {
  training_ = training;
  inner_->set_training(training);
}

const mach::tensor::Tensor& TimedLayer::forward(const mach::tensor::Tensor& input) {
  last_mode_ = training_ ? tracer_.phase() : Mode::Eval;
  const auto begin = Clock::now();
  const mach::tensor::Tensor& output = inner_->forward(input);
  const double ns = ns_between(begin, Clock::now());
  LayerCounters& counters = stats_.by_mode[static_cast<std::size_t>(last_mode_)];
  counters.fwd_ns += ns;
  ++counters.fwd_calls;
  if (stats_.weighted && output.rank() >= 2 && output.dim(1) > 0) {
    // Multiply-adds per output element = weight elements / output channels
    // (Dense [in, out] and Conv2D [out, in, k, k] alike).
    counters.fwd_flops += 2.0 * weight_numel_ *
                          static_cast<double>(output.numel() / output.dim(1));
  }
  if (last_mode_ == Mode::Train) model_.train_ns += ns;
  return output;
}

const mach::tensor::Tensor& TimedLayer::backward(const mach::tensor::Tensor& grad_output) {
  const auto begin = Clock::now();
  const mach::tensor::Tensor& grad_input = inner_->backward(grad_output);
  const double ns = ns_between(begin, Clock::now());
  stats_.by_mode[static_cast<std::size_t>(last_mode_)].bwd_ns += ns;
  if (last_mode_ == Mode::Train) model_.train_ns += ns;
  return grad_input;
}

TimedSampler::TimedSampler(mach::hfl::SamplerPtr inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

std::vector<double> TimedSampler::edge_probabilities(
    const mach::hfl::EdgeSamplingContext& ctx) {
  const auto begin = Clock::now();
  tracer_.decide_begin(begin);
  std::vector<double> q = inner_->edge_probabilities(ctx);
  tracer_.decide_end(begin, Clock::now());
  return q;
}

void TimedSampler::observe_training(const mach::hfl::TrainingObservation& obs) {
  const auto begin = Clock::now();
  inner_->observe_training(obs);
  tracer_.add_observe(ns_between(begin, Clock::now()));
}

void TimedSampler::on_cloud_round(std::size_t t) {
  const auto begin = Clock::now();
  inner_->on_cloud_round(t);
  tracer_.add_cloud_round(ns_between(begin, Clock::now()));
}

void StepObserver::on_run_begin(const mach::obs::RunBeginEvent& /*event*/) {
  if (tracer_ != nullptr) tracer_->run_begin(Clock::now());
}

void StepObserver::on_step_begin(const mach::obs::StepBeginEvent& /*event*/) {
  const auto now = Clock::now();
  if (in_step_) close_step(now);
  in_step_ = true;
  step_begin_ = now;
  step_eval_ns_ = 0.0;
  eval_pending_ = false;
  if (tracer_ != nullptr) tracer_->step_begin(now);
}

void StepObserver::on_edge_aggregated(const mach::obs::EdgeAggregatedEvent& event) {
  if (tracer_ != nullptr) tracer_->edge_done(Clock::now());
  if (event.faults.edge_outage) return;
  sampled += event.num_sampled;
  dropped += event.faults.num_dropped;
  retries += event.faults.num_retries;
  devices_in_rounds += event.num_devices;
}

void StepObserver::on_cloud_round(const mach::obs::CloudRoundEvent& /*event*/) {
  const auto now = Clock::now();
  ++cloud_rounds;
  cloud_done_ = now;
  eval_pending_ = true;
  if (tracer_ != nullptr) tracer_->cloud_done(now);
}

void StepObserver::on_eval(const mach::obs::EvalEvent& /*event*/) {
  const auto now = Clock::now();
  ++evals;
  if (eval_pending_) step_eval_ns_ += ns_between(cloud_done_, now);
  eval_pending_ = false;
  if (tracer_ != nullptr) tracer_->eval_done(now);
}

void StepObserver::on_checkpoint(const mach::obs::CheckpointEvent& /*event*/) {
  ++checkpoints;
}

void StepObserver::on_run_end(const mach::obs::RunEndEvent& /*event*/) {
  const auto now = Clock::now();
  if (in_step_) close_step(now);
  in_step_ = false;
  if (tracer_ != nullptr) tracer_->run_end(now);
}

void StepObserver::close_step(Clock::time_point now) {
  step_ms.push_back((ns_between(step_begin_, now) - step_eval_ns_) * 1e-6);
}

}  // namespace e2e
