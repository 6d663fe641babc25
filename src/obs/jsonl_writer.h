// JSONL trace export: a RunObserver that streams one JSON object per event
// to a file (or any ostream). Each line carries an "event" discriminator:
//   run_begin, step, device, edge_agg, cloud_round, eval, run_end.
// Multiple runs may share one writer (benches append every seed's run to the
// same trace); run_begin/run_end lines delimit them. tools/trace_summary
// reads the format back. Only run_end carries wall time (its phase totals):
// every other line is a deterministic function of the run's configuration,
// byte-identical at any thread count and with profiling on or off.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "obs/observer.h"

namespace mach::obs {

struct JsonlTraceOptions {
  /// Emit per-device "device" lines (the chattiest event class — one line
  /// per sampled device per step). Disable for long paper-scale runs where
  /// only edge/cloud/eval granularity is wanted.
  bool device_events = true;
  /// Emit per-time-step "step" lines.
  bool step_events = true;
  /// Include the full per-device arrays (G~^2, buffer occupancy,
  /// participations) in cloud_round lines rather than just their summary.
  bool sampler_arrays = true;
  /// Flush the stream after every line (crash-robust traces; slightly
  /// slower). Final flush always happens in the destructor regardless.
  bool flush_every_event = false;
};

class JsonlTraceWriter final : public RunObserver {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error when
  /// the file cannot be opened.
  explicit JsonlTraceWriter(const std::string& path, JsonlTraceOptions options = {});
  /// Streams to an externally owned ostream (tests, stringstreams).
  explicit JsonlTraceWriter(std::ostream& out, JsonlTraceOptions options = {});
  /// Resume constructor: truncates the existing trace at `path` to the
  /// cursor recorded in a checkpoint (discarding events the crashed process
  /// wrote after its last durable snapshot) and appends from there. Throws
  /// std::runtime_error when the file is missing, shorter than the cursor
  /// (the trace does not match the snapshot) or cannot be opened. The file
  /// is truncated only at the first line or cursor query, so a run that
  /// rejects its snapshot before emitting anything leaves it untouched.
  JsonlTraceWriter(const std::string& path, const TraceCursor& resume_from,
                   JsonlTraceOptions options = {});
  ~JsonlTraceWriter() override;

  void on_run_begin(const RunBeginEvent& event) override;
  void on_step_begin(const StepBeginEvent& event) override;
  void on_device_trained(const DeviceTrainedEvent& event) override;
  void on_edge_aggregated(const EdgeAggregatedEvent& event) override;
  void on_cloud_round(const CloudRoundEvent& event) override;
  void on_eval(const EvalEvent& event) override;
  void on_run_end(const RunEndEvent& event) override;
  /// Emits a {"event":"checkpoint","t":...} marker line.
  void on_checkpoint(const CheckpointEvent& event) override;
  /// Flushes and reports the current byte/line position. nullopt for
  /// ostream-backed writers whose position cannot be queried.
  std::optional<TraceCursor> checkpoint_cursor() override;

  std::size_t lines_written() const noexcept { return lines_; }

 private:
  void write_line(std::string line);
  /// The resume constructor's deferred truncation (no-op once done).
  void truncate_to_cursor();

  JsonlTraceOptions options_;
  std::unique_ptr<std::ofstream> owned_;  // set when constructed from a path
  std::ostream* out_;
  std::size_t lines_ = 0;
  std::string resume_path_;                  // pending truncation: the file
  std::optional<std::uint64_t> resume_bytes_;  // and the cursor to cut it to
};

}  // namespace mach::obs
