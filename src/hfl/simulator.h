// The hierarchical federated learning engine (Algorithm 1's skeleton).
//
// One simulator instance runs the full device → edge → cloud loop over a
// mobility schedule:
//   1. device sampling with the pluggable Sampler (q^t_{m,n}, Eq. 3),
//   2. local updating — I SGD steps per sampled device (Eq. 4),
//   3. edge aggregation with inverse-probability weights (Eq. 5),
//   4. cloud aggregation every T_g steps (Eq. 6) + evaluation.
//
// Aggregation form. Eq. (5) weighs the sampled devices' parameters by
// 1[m]/q[m] (Horvitz-Thompson): unbiased (Lemma 1) but highly sensitive to
// small sampling probabilities — exactly the gradient-explosion behaviour
// §III-B.2 describes and that MACH's transfer function S(.) is designed to
// tame. Three variants are provided (AggregationForm): the literal Eq. (5)
// (default — matches the paper's system and reproduces the instability that
// separates MACH from unclipped baselines), the self-normalised form most
// practical FedAvg implementations use (keeps the 1/q composition weighting
// but drops the pure scale noise), and the update form the paper's proof
// (Eq. 19) analyses (lowest variance; ablation).
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/manager.h"
#include "ckpt/options.h"
#include "ckpt/run_state.h"
#include "comm/config.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "fault/injector.h"
#include "hfl/cost.h"
#include "hfl/metrics.h"
#include "hfl/sampler.h"
#include "hfl/transport.h"
#include "mobility/schedule.h"
#include "nn/model.h"
#include "nn/norm_batch.h"
#include "obs/observer.h"
#include "obs/registry.h"
#include "obs/resource.h"
#include "obs/span_profiler.h"
#include "obs/status_writer.h"
#include "runtime/parallel_config.h"
#include "runtime/thread_pool.h"

namespace mach::hfl {

/// Edge aggregation rule (all Horvitz-Thompson-weighted; see file comment).
enum class AggregationForm {
  /// Eq. (5) verbatim: w_n = sum (1/|M_n|)(1/q_m) w_m over sampled devices.
  /// Unbiased but carries both scale noise (sum of weights != 1) and
  /// composition noise (small-q devices dominate when sampled).
  Literal,
  /// Self-normalised HT: w_n = sum (1/q_m) w_m / sum (1/q_m). The standard
  /// FedAvg-style implementation of Eq. (5): removes the pure scale noise
  /// while keeping the 1/q composition weighting (and thus the instability
  /// that extreme sampling probabilities cause — the effect MACH's transfer
  /// function defends against).
  SelfNormalized,
  /// HT weighting applied to local updates (w_m - w_n), non-sampled devices
  /// implicitly contribute the unchanged edge model — the form the paper's
  /// proof (Eq. 19) analyses. Lowest variance; ablation.
  UpdateForm,
};

/// Floor applied to sampling probabilities to keep inverse weights finite.
inline constexpr double kMinProbability = 1e-3;

struct HflOptions {
  std::size_t local_epochs = 10;       // I in Eq. (4)
  std::size_t cloud_interval = 5;      // T_g
  std::size_t batch_size = 16;         // |xi| per local step
  double learning_rate = 0.01;         // gamma
  double participation = 0.5;          // sets K_n = participation * |M| / |N|
  /// Edge aggregation rule (see AggregationForm).
  AggregationForm aggregation = AggregationForm::Literal;
  /// Also measure ||∇f(w^t)||² (Theorem 1's left-hand side) at every
  /// evaluation, over a fixed training-data sample of this many examples
  /// (0 disables the measurement).
  std::size_t track_global_grad_norm_examples = 0;
  std::uint64_t seed = 1;
  /// Optional separate seed for the Bernoulli device-sampling draws; 0 means
  /// derive from `seed`. Lets tests vary the sampling realisation while
  /// keeping model init and minibatch draws fixed (Lemma 1 Monte-Carlo).
  std::uint64_t sampling_seed = 0;
  /// Workers for device training and evaluation sharding (1 = one worker,
  /// the calling thread; 0 = hardware_concurrency). Any value produces
  /// bitwise-identical runs. Each step plans every edge round on the
  /// coordinator, trains the planned arrivals of several edges in one
  /// parallel section (each device on its slot's model, against its own RNG
  /// stream; the coordinator's thread runs slot 0), then reduces the edges
  /// in edge order; every floating-point reduction (Eq. 5 edge aggregation,
  /// evaluation chunk folds) happens serially in index order, and samplers
  /// observe the step's arrivals only after its last decision (see Sampler).
  runtime::ParallelConfig parallel;
  /// Crash-tolerant checkpointing (src/ckpt/). With `checkpoint.every` > 0
  /// the engine freezes its full run state — model parameters, every RNG
  /// stream (including cached Box–Muller halves), sampler experience, the
  /// byte ledger and codec state, recorded metrics, the instrument registry
  /// and the attached trace sink's byte cursor — into an atomic CRC-checked
  /// snapshot after every N completed steps. With `checkpoint.resume` the
  /// engine reads the newest usable snapshot at construction (see
  /// resume_header), and its first run() replays the remaining steps
  /// bitwise identically to the uninterrupted run, at any thread count.
  ckpt::CheckpointOptions checkpoint;
  /// Fault-injection schedule (device dropout, stragglers vs per-edge
  /// timeouts, edge outages, cloud upload loss — see fault/schedule.h). The
  /// default (empty) schedule makes no fault draw: every output is bitwise
  /// identical to a run without the fault layer. With faults active,
  /// survivors' Horvitz-Thompson weights are divided by the schedule's
  /// analytic arrival probability, keeping Eq. 5 unbiased over the surviving
  /// set; samplers only observe devices that actually reported. Fault draws
  /// are pure functions of (t, edge, device) (fault/injector.h).
  fault::FaultSchedule faults;
  /// Deep profiling (src/obs/span_profiler.h). With `profile.trace_path` set
  /// the engine records hierarchical spans (round → edge round → device
  /// train → local SGD) into per-track ring buffers — two clock reads and
  /// zero allocations per span — merges them at step barriers and writes
  /// a Chrome trace-event JSON (Perfetto-loadable) at run end. With
  /// `profile.status_path` set it additionally rewrites a status.json
  /// heartbeat (atomic rename) at most every half second. Profiling is
  /// strictly passive: the default (both paths empty) takes the exact
  /// pre-profiler code path, and even with profiling on the RNG streams,
  /// trace events and CSV output are untouched.
  obs::ProfileOptions profile;
  /// Cooperative-stop flag polled at every step barrier (nullptr = never
  /// stops early). When it becomes nonzero the engine saves one extra
  /// snapshot at the current step (when checkpointing is configured), skips
  /// the remaining steps and returns; interrupted_at() reports the cut. Set
  /// it from a SIGTERM/SIGINT handler — sig_atomic_t stores are
  /// async-signal-safe — to get checkpoint-and-exit drains (the contract
  /// the sweep orchestrator relies on).
  const volatile std::sig_atomic_t* stop_flag = nullptr;
  /// Test/CI harness: busy-hang the coordinator forever once this many
  /// steps completed (0 = off). The heartbeat stops advancing, which is
  /// exactly what a supervisor's watchdog must detect; nothing but SIGKILL
  /// gets the process out.
  std::size_t hang_at = 0;
  /// Per-link transfer codecs (src/comm/), applied by the engine's
  /// Transport. The all-fp32 default takes the exact pre-codec model path
  /// while the encoded-byte ledger still runs; lossy codecs transcode on the
  /// coordinator thread, so runs stay bitwise identical at any thread count.
  comm::CommConfig comm;
};

/// Builds a fresh untrained model; invoked once per worker slot (the
/// simulator reuses these model objects for every device, probe and
/// evaluation chunk, swapping flat parameter vectors).
using ModelFactory = std::function<nn::Sequential()>;

class HflSimulator {
 public:
  /// `train`/`test` must outlive the simulator. The partition maps device ->
  /// indices into `train`. The schedule supplies B[t][n,m]; its horizon may
  /// be shorter than the requested run (it repeats cyclically).
  HflSimulator(const data::Dataset& train, const data::Dataset& test,
               data::Partition partition, const mobility::MobilitySchedule& schedule,
               ModelFactory model_factory, HflOptions options);

  /// Runs `steps` time steps with the given sampler; returns the metrics.
  /// The sampler's lifetime spans the run (experience carries across steps).
  MetricsRecorder run(Sampler& sampler, std::size_t steps);

  /// Evaluates the current global model on the test split.
  EvalPoint evaluate_global(std::size_t t);

  /// Full confusion matrix of the current global model on the test split
  /// (per-class view of the long-tail learning progress).
  ConfusionMatrix evaluate_confusion();

  /// Traffic of the most recent run() (live while it runs).
  const CommunicationCost& last_run_cost() const noexcept {
    return transport_.cost();
  }

  /// Attaches one telemetry observer (nullptr detaches). Non-owning; the
  /// observer must outlive every subsequent run(). Observers are strictly
  /// passive: attaching one never changes sampling, training or aggregation
  /// (the RNG stream is untouched), only what gets reported.
  void set_observer(obs::RunObserver* observer) noexcept { observer_ = observer; }

  /// Header of the snapshot the next run() continues from: with
  /// HflOptions::checkpoint.resume set, the constructor reads the newest
  /// usable snapshot in checkpoint.dir (ckpt::CheckpointManager::load_latest)
  /// so a caller can open its trace at the recorded cursor and report
  /// `next_t` before the run starts. nullopt when resume is off, when no
  /// snapshot is usable (logged; the run starts from step 0) and once a
  /// run() has consumed it. That run() checks the fingerprint against its
  /// own configuration and sampler, restores every piece of run state,
  /// skips the run_begin event and baseline evaluation (both happened in the
  /// original run) and resumes the step loop at `next_t`; it throws
  /// ckpt::CorruptPayload (malformed snapshot) or std::invalid_argument
  /// (another configuration or data world: retrying cannot succeed).
  const std::optional<ckpt::RunStateHeader>& resume_header() const noexcept {
    return resume_header_;
  }

  /// Wall-clock phase breakdown of the most recent run() (always recorded,
  /// observer or not — each phase scope is one phase-tagged obs::SpanGuard,
  /// two clock reads).
  const obs::PhaseTimerSet& phase_timers() const noexcept { return timers_; }

  /// Counter/gauge/histogram registry of the most recent run().
  const obs::MetricsRegistry& metrics_registry() const noexcept { return registry_; }

  /// Span profiler of the most recent run() (nullptr unless
  /// HflOptions::profile.trace_path was set). Exposed so callers can read
  /// spans_dropped or re-export; the engine already wrote the Chrome trace
  /// at run end.
  const obs::SpanProfiler* span_profiler() const noexcept {
    return profiler_.get();
  }

  /// Whether the Chrome-trace export at the end of the last profiled run()
  /// landed on disk (true when profiling was off). A failed export is also
  /// logged as a warning at run end.
  bool profile_export_ok() const noexcept { return profile_export_ok_; }

  /// Step count at which the last run() honoured HflOptions::stop_flag and
  /// returned early (nullopt = ran to completion). When checkpointing was
  /// configured, a snapshot covering exactly this many steps is durable, so
  /// a --resume continues bitwise-identically from the cut.
  std::optional<std::size_t> interrupted_at() const noexcept {
    return interrupted_at_;
  }

  std::size_t num_devices() const noexcept { return partition_.size(); }
  std::size_t num_edges() const noexcept { return schedule_.num_edges(); }
  /// K_n for edge n (Eq. 3).
  double edge_capacity(std::size_t edge) const;

  /// Flat parameters of the current global model (for tests/examples).
  const std::vector<float>& global_parameters() const noexcept { return global_; }

  /// FederationInfo handed to samplers at bind() time.
  FederationInfo federation_info() const;

 private:
  /// One edge round between its plan and its reduction: what the
  /// coordinator decided for it and where its arrivals' result slots start.
  /// One per edge in flight, reused across steps (capacity included).
  struct EdgePlan {
    std::size_t edge = 0;
    std::vector<double> probs;           // clamped q per present device
    std::vector<std::uint32_t> sampled;  // Bernoulli hits, device-list indices
    std::vector<std::uint32_t> arrivals;  // sampled and arriving, likewise
    obs::FaultSummary faults;  // edge_outage: the edge runs no round at all
    /// The model its devices received (Transport::download).
    const std::vector<float>* device_view = nullptr;
    std::size_t first_job = 0;           // its first arrival's index in jobs_
  };

  /// One arriving device's local update (Eq. 4), trained from `start` into
  /// the result slot of the same index.
  struct TrainingJob {
    std::uint32_t device = 0;
    std::size_t edge = 0;
    const std::vector<float>* start = nullptr;
  };

  /// Per-job result slot: the training section fills slot j from job j on
  /// whichever worker claimed it, then the coordinator reduces the slots in
  /// job order (edge order, then sampled order), so the float additions are
  /// the same at any thread count.
  struct DeviceSlot {
    TrainingObservation observation;
    std::vector<float> params;  // trained parameters w_m^{t+1}
  };

  /// One pool slot's scratch model and the reused buffers of its per-device
  /// hot path: the minibatch and the gradient-norm batch its local steps and
  /// probes feed. Slice k of every section runs on slot k; slot 0 (the
  /// coordinator's thread) also serves the coordinator between sections.
  struct PoolSlot {
    nn::Sequential model;
    data::Batch batch;
    nn::GradNormBatch norms;
  };

  /// One local-update phase for a device (Eq. 4) on the slot's model into
  /// `out`: the trained parameters and the observation. Each local step's
  /// ||g||^2 is staged in slot.norms and lands in out.observation when that
  /// batch is flushed.
  void train_device(std::size_t t, std::uint32_t device, std::size_t edge,
                    const std::vector<float>& edge_model, PoolSlot& slot,
                    DeviceSlot& out);

  /// Trains every job in jobs_ into device_slots_ (Eq. 4): one parallel
  /// section whose slices claim job indices from a shared counter.
  void train_jobs(std::size_t t);

  /// ||g||^2 probe used for samplers with needs_oracle() (MACH-P), on slot
  /// 0's model, which must hold the probed edge model. Staged in slot 0's
  /// norm batch; `*result` is written when it is flushed.
  void probe_gradient_norm(std::uint32_t device, double* result);

  /// Runs fn(chunk, model, batch) for every kEvalChunk-example chunk of the
  /// test split in one parallel section; each chunk first loads global_ into
  /// its slot's model. Callers fold the chunks' results in chunk order.
  void for_each_test_chunk(
      std::int64_t t,
      const std::function<void(std::size_t chunk, nn::Sequential& model,
                               const data::Batch& batch)>& fn);

  /// Configuration hash recorded in snapshots (see ckpt/run_state.h). Covers
  /// everything that shapes the deterministic event sequence — topology,
  /// seeds, hyperparameters, aggregation form, fault and codec specs,
  /// sampler name, the horizon, the mobility rows the run reaches and the
  /// data world (splits and partition) — and deliberately excludes the
  /// thread count (resuming at a different `--threads` is legal).
  std::uint64_t run_fingerprint(const Sampler& sampler, std::size_t steps) const;

  /// Freezes the complete run state into an atomic snapshot: emits the
  /// checkpoint marker + cursor to the observer first (so the marker itself
  /// is covered by the recorded trace offset), then encodes and writes via
  /// the checkpoint manager. `next_t` steps are complete.
  void save_checkpoint(Sampler& sampler, std::size_t steps, std::size_t next_t,
                       std::size_t cloud_rounds, double window_train_loss,
                       std::size_t window_participants,
                       const MetricsRecorder& metrics);

  /// Applies and consumes the snapshot read at construction. Must run after
  /// Sampler::bind, instrument registration and the fingerprint. Throws
  /// ckpt::CorruptPayload / std::invalid_argument (see resume_header).
  void restore_run_state(Sampler& sampler, std::size_t steps,
                         MetricsRecorder& metrics);

  const data::Dataset& train_;
  const data::Dataset& test_;
  data::Partition partition_;
  const mobility::MobilitySchedule& schedule_;
  HflOptions options_;

  runtime::ThreadPool pool_;        // the coordinator's thread runs slot 0
  std::vector<PoolSlot> slots_;     // one per pool slot
  std::size_t param_count_ = 0;
  std::vector<float> global_;       // w^t
  std::vector<std::vector<float>> edge_models_;  // w_n^t
  Transport transport_;             // every model message and its bytes
  common::Rng engine_rng_;
  std::vector<common::Rng> device_rngs_;  // local minibatch randomness

  std::vector<EdgePlan> plans_;            // one per edge, used in flight order
  std::vector<TrainingJob> jobs_;          // the pending edges' arrivals
  std::vector<DeviceSlot> device_slots_;   // one per job, reused
  std::vector<TrainingObservation> observations_;  // the step's, queued
  std::vector<nn::StepStats> eval_slots_;  // one per evaluation chunk, reused

  fault::FaultInjector injector_;  // the fault policy (off: fault-free)

  obs::RunObserver* observer_ = nullptr;  // non-owning; see set_observer
  obs::PhaseTimerSet timers_;
  obs::MetricsRegistry registry_;

  // Deep-profiling runtime (all null unless HflOptions::profile enables
  // them; rebuilt at the start of each run()).
  std::unique_ptr<obs::SpanProfiler> profiler_;
  std::unique_ptr<obs::ResourceSampler> resources_;
  std::unique_ptr<obs::StatusWriter> status_;
  bool profile_export_ok_ = true;
  std::optional<std::size_t> interrupted_at_;

  // Checkpoint runtime (null with checkpointing off). The snapshot to resume
  // from is read at construction and consumed by the next run().
  std::unique_ptr<ckpt::CheckpointManager> ckpt_manager_;
  std::optional<ckpt::RunStateHeader> resume_header_;
  std::vector<std::uint8_t> resume_payload_;   // resume_header_'s snapshot
  std::uint64_t fingerprint_ = 0;  // run_fingerprint of the run in progress
};

}  // namespace mach::hfl
