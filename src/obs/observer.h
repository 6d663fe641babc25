// Run-telemetry hook interface for the HFL engine.
//
// HflSimulator::set_observer attaches one RunObserver whose callbacks fire
// at the phase boundaries of Algorithm 1: per time step, per trained device,
// per edge aggregation, per cloud round and per evaluation. Observers are
// strictly passive — the engine computes event payloads only when an
// observer is attached, and none of the callbacks can influence sampling,
// training or aggregation (observer disabled ⇒ bit-identical runs).
//
// The bundled JsonlTraceWriter (jsonl_writer.h) streams these events as one
// JSON object per line; tools/trace_summary turns a trace back into
// phase-time and sampling-health tables.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/ledger.h"
#include "obs/registry.h"
#include "obs/span_profiler.h"

namespace mach::obs {

/// Distribution summary of one edge's clamped sampling vector q (Eq. 3).
struct QSummary {
  std::size_t count = 0;          // |M_n^t|
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double sum = 0.0;               // expected participants; feasible when <= K_n
  std::size_t clamped_to_floor = 0;  // entries raised to hfl::kMinProbability
  std::size_t clamped_to_one = 0;    // entries lowered to 1

  /// Builds the summary from the engine's already-clamped q vector.
  static QSummary from(const std::vector<double>& q, double floor);
};

/// Sampler internals exported for telemetry (see hfl::Sampler::introspect).
/// For MACH this is Algorithm 2's state: the UCB experience G~^2_m (Eq. 15),
/// the per-device gradient-experience buffer occupancy, and the
/// participation counts the exploration term divides by. All vectors are
/// indexed by device id and share one size (or are empty when unsupported).
struct SamplerIntrospection {
  std::vector<double> g_squared;            // G~^2_m estimates
  std::vector<std::uint64_t> buffer_sizes;  // experiences buffered this round
  std::vector<std::uint64_t> participations;

  bool empty() const noexcept { return g_squared.empty(); }
};

/// Realised faults of one edge round (fault-injection layer, src/fault/).
/// `active` is false — and nothing is emitted to traces — unless the run has
/// a non-empty FaultSchedule, so fault-free traces keep their exact bytes.
struct FaultSummary {
  bool active = false;
  /// The edge skipped this round entirely (transient outage window).
  bool edge_outage = false;
  std::size_t num_dropped = 0;
  std::size_t num_straggler_arrivals = 0;   // late but inside the budget
  std::size_t num_straggler_timeouts = 0;   // every attempt missed the budget
  std::size_t num_retries = 0;              // retransmissions across devices
  /// Sampled devices whose updates arrived (the Eq. 5 surviving set).
  std::vector<std::uint64_t> survivors;
  /// Sampled devices whose updates never arrived.
  std::vector<std::uint64_t> lost;
};

struct RunBeginEvent {
  std::string sampler;
  std::uint64_t seed = 0;
  std::size_t steps = 0;
  std::size_t num_devices = 0;
  std::size_t num_edges = 0;
  std::size_t cloud_interval = 0;  // T_g
  /// Canonical fault spec (FaultSchedule::to_string); empty = faults off.
  std::string fault_spec;
  /// Canonical codec spec (comm::CommConfig::to_string); empty = every link
  /// runs the fp32 identity codec (nothing is emitted, preserving the exact
  /// trace bytes of pre-codec runs).
  std::string codec_spec;
};

struct StepBeginEvent {
  std::size_t t = 0;
  std::size_t active_edges = 0;      // edges with at least one device present
  std::size_t devices_present = 0;   // sum of |M_n^t|
};

struct DeviceTrainedEvent {
  std::size_t t = 0;
  std::uint32_t device = 0;
  std::size_t edge = 0;
  double q = 0.0;               // inclusion probability it was drawn with
  double mean_loss = 0.0;       // mean local loss over the I steps
  double last_grad_sq_norm = 0.0;
};

struct EdgeAggregatedEvent {
  std::size_t t = 0;
  std::size_t edge = 0;
  double capacity = 0.0;        // K_n
  std::size_t num_devices = 0;  // |M_n^t|
  std::size_t num_sampled = 0;  // realised Bernoulli draws
  QSummary q;
  /// Horvitz-Thompson composition diagnostics over the sampled devices:
  /// sum of 1/(|M_n^t| q_m) (1 in expectation under Eq. 5) and the
  /// population variance of those weights (the instability channel §III-B.2
  /// describes).
  double ht_weight_sum = 0.0;
  double ht_weight_variance = 0.0;
  /// Fault-injection outcome of this round (inactive when faults are off).
  /// When active, ht_weight_* and the aggregation cover only `survivors`.
  FaultSummary faults;
};

struct CloudRoundEvent {
  std::size_t t = 0;
  std::size_t round = 0;        // 1-based cloud-round index within the run
  std::size_t num_edges = 0;
  /// Sampler internals captured right after Sampler::on_cloud_round (i.e.
  /// the refreshed Eq. 15 estimates MACH will sample with next). Empty when
  /// the active sampler does not support introspection.
  SamplerIntrospection sampler;
  /// Fault-injection layer state: set when a FaultSchedule is active, in
  /// which case `lost_edges` lists the edges whose uploads the cloud fold
  /// never received this round (possibly none).
  bool faults_active = false;
  std::vector<std::uint64_t> lost_edges;
};

struct EvalEvent {
  std::size_t t = 0;
  double test_accuracy = 0.0;
  double test_loss = 0.0;
  double train_loss = 0.0;      // windowed train loss (0 for the baseline eval)
  std::size_t participants = 0;
  double global_grad_sq_norm = 0.0;
};

/// Emitted right before the engine freezes a run-state snapshot: `t` steps
/// are complete and the snapshot will resume at step `t`. The marker lands
/// in the trace *before* the trace cursor is captured, so an uninterrupted
/// checkpointed run and a crash-resumed one carry identical marker lines —
/// and tools can detect resumed traces by markers followed by regressing t.
struct CheckpointEvent {
  std::size_t t = 0;      // next_t: first step the snapshot will re-execute
  std::size_t steps = 0;  // the run's horizon
};

/// Byte/line position of a trace sink at snapshot time. On resume the trace
/// file is truncated to `byte_offset` and appended, which removes any events
/// the crashed process emitted after its last durable snapshot.
struct TraceCursor {
  std::uint64_t byte_offset = 0;
  std::uint64_t lines = 0;
};

struct RunEndEvent {
  std::size_t steps = 0;
  std::size_t cloud_rounds = 0;
  /// Phase wall-clock breakdown of the whole run.
  const PhaseTimerSet* phases = nullptr;
  /// The engine's counter/gauge/histogram registry at end of run.
  const MetricsRegistry* registry = nullptr;
  /// Encoded-byte ledger (messages + bytes per link, src/comm/); always set
  /// by the engine — fp32 links charge exactly 4 bytes per parameter.
  const comm::ByteLedger* ledger = nullptr;
  /// What the same message counts would cost at uncompressed fp32 (the
  /// pre-codec reporting convention, for compression-ratio readouts).
  std::uint64_t assumed_fp32_bytes = 0;
  /// Sticky CommunicationCost accumulation-error flag (mixed model sizes).
  bool mixed_model_sizes = false;
};

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  virtual void on_run_begin(const RunBeginEvent& /*event*/) {}
  virtual void on_step_begin(const StepBeginEvent& /*event*/) {}
  virtual void on_device_trained(const DeviceTrainedEvent& /*event*/) {}
  virtual void on_edge_aggregated(const EdgeAggregatedEvent& /*event*/) {}
  virtual void on_cloud_round(const CloudRoundEvent& /*event*/) {}
  virtual void on_eval(const EvalEvent& /*event*/) {}
  virtual void on_run_end(const RunEndEvent& /*event*/) {}
  virtual void on_checkpoint(const CheckpointEvent& /*event*/) {}

  /// Current flushed position of this observer's persistent sink, recorded
  /// into snapshots so a resumed run can truncate-and-append seamlessly.
  /// Observers without a recoverable sink (stringstreams, stdout, pure
  /// aggregators) return nullopt. Called immediately after on_checkpoint.
  virtual std::optional<TraceCursor> checkpoint_cursor() { return std::nullopt; }
};

}  // namespace mach::obs
