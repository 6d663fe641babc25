// Outside-in instrumentation for the end-to-end benchmark.
//
// Nothing here is compiled into the engine. The benchmark measures the
// simulator only through the public interfaces the engine already calls:
//   * StepObserver (obs::RunObserver) reads the clock at the engine's event
//     boundaries — the only probe in an untraced run;
//   * TimedLayer (nn::Layer) wraps each layer of the traced model mirror;
//   * TimedSampler (hfl::Sampler) wraps the registry's sampler.
// In a traced run the three report to one Tracer, which splits every step
// into consecutive windows (probe → decide → edge round, per edge, then cloud,
// evaluation and the step tail) and charges layer time to the mode it ran in:
// evaluation when the layer last saw set_training(false), probing between an
// edge boundary and the sampler's edge_probabilities call, training
// otherwise.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hfl/sampler.h"
#include "nn/layer.h"
#include "obs/observer.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

enum class Mode : int { Train = 0, Probe = 1, Eval = 2 };
inline constexpr std::size_t kModes = 3;

/// Time and work of one layer in one mode.
struct LayerCounters {
  double fwd_ns = 0.0;
  double bwd_ns = 0.0;
  std::uint64_t fwd_calls = 0;
  double fwd_flops = 0.0;  // backward does twice this (input and weight grads)
};

/// One layer of one model instance.
struct LayerStats {
  std::size_t index = 0;
  std::string kind;       // the wrapped layer's name()
  bool weighted = false;  // owns parameters (Conv2D, Dense)
  std::array<LayerCounters, kModes> by_mode{};
};

/// One model built by the traced factory: the engine's scratch model or a
/// worker replica. Each instance is driven by one thread at a time.
struct ModelStats {
  std::vector<LayerStats> layers;
  double train_ns = 0.0;       // running training-mode total (owning thread)
  double train_ns_mark = 0.0;  // value at the last edge boundary (coordinator)
};

/// Window and sampler totals of a traced run, in nanoseconds.
struct WindowTotals {
  double probe = 0.0;       // edge boundary → edge_probabilities entry
  double decide = 0.0;      // inside edge_probabilities
  double edge_round = 0.0;  // edge_probabilities exit → edge aggregated
  double cloud = 0.0;       // last edge → cloud round (incl. sampler refresh)
  double eval = 0.0;        // cloud round → evaluation (and the baseline one)
  double tail = 0.0;        // last event of a step → next step (checkpoints)
  double observe = 0.0;     // inside observe_training
  double cloud_round_sampler = 0.0;  // inside Sampler::on_cloud_round
  /// Training layer time on the critical path: per edge round, the busiest
  /// model instance (equals all training layer time on the serial path).
  double critical_train = 0.0;
};

class Tracer {
 public:
  /// Registers the stats of a new model instance with `layers` slots.
  ModelStats& new_model(std::size_t layers);

  Mode phase() const noexcept { return phase_.load(std::memory_order_relaxed); }

  // Window boundaries, called on the coordinator thread.
  void run_begin(Clock::time_point now);
  void step_begin(Clock::time_point now);
  void decide_begin(Clock::time_point now);
  void decide_end(Clock::time_point begin, Clock::time_point now);
  void edge_done(Clock::time_point now);
  void cloud_done(Clock::time_point now);
  void eval_done(Clock::time_point now);
  void run_end(Clock::time_point now);

  void add_observe(double ns) noexcept { totals_.observe += ns; }
  void add_cloud_round(double ns) noexcept { totals_.cloud_round_sampler += ns; }

  const WindowTotals& totals() const noexcept { return totals_; }
  const std::vector<double>& decide_ns() const noexcept { return decide_ns_; }
  /// Every model instance built so far (read once the runs have ended).
  const std::vector<std::unique_ptr<ModelStats>>& models() const noexcept {
    return models_;
  }

 private:
  void close_step(Clock::time_point now);

  std::atomic<Mode> phase_{Mode::Train};
  WindowTotals totals_;
  std::vector<double> decide_ns_;
  Clock::time_point mark_{};
  bool in_step_ = false;
  bool eval_pending_ = false;

  std::mutex models_mutex_;  // guards models_ (factory calls)
  std::vector<std::unique_ptr<ModelStats>> models_;
};

/// Forwards every call to the wrapped layer and times forward/backward.
class TimedLayer final : public mach::nn::Layer {
 public:
  TimedLayer(std::unique_ptr<mach::nn::Layer> inner, LayerStats& stats,
             ModelStats& model, const Tracer& tracer);

  const mach::tensor::Tensor& forward(const mach::tensor::Tensor& input) override;
  const mach::tensor::Tensor& backward(const mach::tensor::Tensor& grad_output) override;
  std::vector<mach::nn::ParamRef> params() override { return inner_->params(); }
  void init_params(mach::common::Rng& rng) override { inner_->init_params(rng); }
  void set_training(bool training) override;
  const mach::tensor::ScratchArena* scratch_arena() const override {
    return inner_->scratch_arena();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mach::nn::Layer> inner_;
  LayerStats& stats_;
  ModelStats& model_;
  const Tracer& tracer_;
  double weight_numel_ = 0.0;
  bool training_ = true;
  Mode last_mode_ = Mode::Train;
};

/// Forwards every call to the registry's sampler; times the decision,
/// observation and cloud-round hooks and marks the probe/decide windows.
class TimedSampler final : public mach::hfl::Sampler {
 public:
  TimedSampler(mach::hfl::SamplerPtr inner, Tracer& tracer);

  std::string name() const override { return inner_->name(); }
  void bind(const mach::hfl::FederationInfo& info) override { inner_->bind(info); }
  std::vector<double> edge_probabilities(
      const mach::hfl::EdgeSamplingContext& ctx) override;
  void observe_training(const mach::hfl::TrainingObservation& obs) override;
  void on_cloud_round(std::size_t t) override;
  bool needs_oracle() const override { return inner_->needs_oracle(); }
  void save_state(mach::ckpt::ByteWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(mach::ckpt::ByteReader& in) override { inner_->load_state(in); }
  bool introspect(mach::obs::SamplerIntrospection& out) const override {
    return inner_->introspect(out);
  }

 private:
  mach::hfl::SamplerPtr inner_;
  Tracer& tracer_;
};

/// Per-step wall clock from the engine's events, plus the event tallies the
/// byte-ledger check needs. With a Tracer it also drives the window split.
class StepObserver final : public mach::obs::RunObserver {
 public:
  explicit StepObserver(Tracer* tracer) : tracer_(tracer) {}

  void on_run_begin(const mach::obs::RunBeginEvent& event) override;
  void on_step_begin(const mach::obs::StepBeginEvent& event) override;
  void on_edge_aggregated(const mach::obs::EdgeAggregatedEvent& event) override;
  void on_cloud_round(const mach::obs::CloudRoundEvent& event) override;
  void on_eval(const mach::obs::EvalEvent& event) override;
  void on_checkpoint(const mach::obs::CheckpointEvent& event) override;
  void on_run_end(const mach::obs::RunEndEvent& event) override;

  /// Wall time of every completed step, evaluation excluded.
  std::vector<double> step_ms;
  std::size_t cloud_rounds = 0;
  std::size_t evals = 0;
  std::size_t checkpoints = 0;
  std::uint64_t sampled = 0;        // Bernoulli draws that succeeded
  std::uint64_t dropped = 0;        // sampled devices that never uploaded
  std::uint64_t retries = 0;        // straggler retransmissions
  std::uint64_t devices_in_rounds = 0;  // |M_n^t| over edges that ran a round

 private:
  void close_step(Clock::time_point now);

  Tracer* tracer_;
  bool in_step_ = false;
  bool eval_pending_ = false;
  Clock::time_point step_begin_{};
  Clock::time_point cloud_done_{};
  double step_eval_ns_ = 0.0;
};

}  // namespace e2e
