#include "obs/jsonl_writer.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "obs/json.h"

namespace mach::obs {

namespace {

/// Nested q-summary object shared by edge_agg lines.
std::string q_summary_json(const QSummary& q) {
  JsonObjectWriter w;
  w.begin();
  w.field("count", q.count);
  w.field("min", q.min);
  w.field("mean", q.mean);
  w.field("max", q.max);
  w.field("sum", q.sum);
  w.field("clamped_to_floor", q.clamped_to_floor);
  w.field("clamped_to_one", q.clamped_to_one);
  return w.end();
}

std::string phases_json(const PhaseTimerSet& phases) {
  std::string out = "{";
  bool first = true;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const auto phase = static_cast<Phase>(i);
    const PhaseAccumulator& acc = phases[phase];
    JsonObjectWriter w;
    w.begin();
    w.field("count", acc.count);
    w.field("total_s", acc.total_seconds);
    w.field("mean_s", acc.mean_seconds());
    w.field("min_s", acc.min_seconds);
    w.field("max_s", acc.max_seconds);
    if (!first) out += ',';
    first = false;
    out += '"';
    out += phase_name(phase);
    out += "\":";
    out += w.end();
  }
  out += '}';
  return out;
}

std::string registry_json(const MetricsRegistry& registry) {
  const MetricsSnapshot snap = registry.snapshot();
  JsonObjectWriter counters;
  counters.begin();
  for (const auto& entry : snap.counters) counters.field(entry.name, entry.value);
  JsonObjectWriter gauges;
  gauges.begin();
  for (const auto& entry : snap.gauges) gauges.field(entry.name, entry.value);
  std::string histograms = "{";
  bool first = true;
  for (const auto& entry : snap.histograms) {
    JsonObjectWriter h;
    h.begin();
    h.field("bounds", entry.bounds);
    h.field("buckets", entry.buckets);
    h.field("count", entry.count);
    h.field("sum", entry.sum);
    if (!first) histograms += ',';
    first = false;
    histograms += '"' + json_escape(entry.name) + "\":" + h.end();
  }
  histograms += '}';
  JsonObjectWriter w;
  w.begin();
  w.raw_field("counters", counters.end());
  w.raw_field("gauges", gauges.end());
  w.raw_field("histograms", histograms);
  return w.end();
}

/// Realised-fault payload of one edge round (only emitted when the fault
/// layer is active — fault-free traces keep their exact bytes).
std::string fault_summary_json(const FaultSummary& faults) {
  JsonObjectWriter w;
  w.begin();
  w.field("outage", faults.edge_outage);
  w.field("dropped", static_cast<std::uint64_t>(faults.num_dropped));
  w.field("straggler_arrivals",
          static_cast<std::uint64_t>(faults.num_straggler_arrivals));
  w.field("straggler_timeouts",
          static_cast<std::uint64_t>(faults.num_straggler_timeouts));
  w.field("retries", static_cast<std::uint64_t>(faults.num_retries));
  w.field("survivors", faults.survivors);
  w.field("lost", faults.lost);
  return w.end();
}

/// Encoded-byte ledger payload of the run_end line: messages and bytes per
/// link plus the fp32-equivalent total for compression-ratio readouts.
std::string comm_json(const RunEndEvent& event) {
  const auto link = [](const comm::LinkTraffic& traffic) {
    JsonObjectWriter w;
    w.begin();
    w.field("messages", traffic.messages);
    w.field("bytes", traffic.bytes);
    return w.end();
  };
  const comm::ByteLedger& ledger = *event.ledger;
  JsonObjectWriter w;
  w.begin();
  w.raw_field("device_download", link(ledger.device_download));
  w.raw_field("device_upload", link(ledger.device_upload));
  w.raw_field("retry_upload", link(ledger.retry_upload));
  w.raw_field("probe_download", link(ledger.probe_download));
  w.raw_field("edge_upload", link(ledger.edge_upload));
  w.raw_field("cloud_broadcast", link(ledger.cloud_broadcast));
  w.field("total_bytes", ledger.total_bytes());
  w.field("assumed_fp32_bytes", event.assumed_fp32_bytes);
  w.field("mixed_model_sizes", event.mixed_model_sizes);
  return w.end();
}

/// min/mean/max summary of a per-device array (null-safe on empty).
std::string summary_json(const std::vector<double>& values) {
  JsonObjectWriter w;
  w.begin();
  w.field("count", values.size());
  if (!values.empty()) {
    double min = values.front(), max = values.front(), sum = 0.0;
    for (const double v : values) {
      min = std::min(min, v);
      max = std::max(max, v);
      sum += v;
    }
    w.field("min", min);
    w.field("mean", sum / static_cast<double>(values.size()));
    w.field("max", max);
  }
  return w.end();
}

}  // namespace

JsonlTraceWriter::JsonlTraceWriter(const std::string& path, JsonlTraceOptions options)
    : options_(options),
      owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      out_(owned_.get()) {
  if (!*owned_) {
    throw std::runtime_error("JsonlTraceWriter: cannot open " + path);
  }
}

JsonlTraceWriter::JsonlTraceWriter(std::ostream& out, JsonlTraceOptions options)
    : options_(options), out_(&out) {}

JsonlTraceWriter::JsonlTraceWriter(const std::string& path,
                                   const TraceCursor& resume_from,
                                   JsonlTraceOptions options)
    : options_(options) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw std::runtime_error("JsonlTraceWriter: cannot resume " + path + ": " +
                             ec.message());
  }
  if (size < resume_from.byte_offset) {
    throw std::runtime_error(
        "JsonlTraceWriter: trace " + path + " is shorter (" +
        std::to_string(size) + " bytes) than the checkpoint cursor (" +
        std::to_string(resume_from.byte_offset) + ") — wrong file?");
  }
  // in|out ("r+") rather than app: append-mode streams pin every write to
  // end-of-file but leave tellp() unreliable, and the next snapshot needs an
  // exact byte cursor from tellp(). Opening writes nothing.
  owned_ = std::make_unique<std::ofstream>(path, std::ios::in | std::ios::out);
  out_ = owned_.get();
  if (!*owned_) {
    throw std::runtime_error("JsonlTraceWriter: cannot reopen " + path);
  }
  lines_ = static_cast<std::size_t>(resume_from.lines);
  resume_path_ = path;
  resume_bytes_ = resume_from.byte_offset;
}

JsonlTraceWriter::~JsonlTraceWriter() { out_->flush(); }

void JsonlTraceWriter::truncate_to_cursor() {
  if (!resume_bytes_.has_value()) return;
  // Drop everything the crashed process wrote after its last snapshot; the
  // resumed run re-emits those events identically. Deferred to the first
  // write: the engine checks the snapshot before its first event, so a
  // rejected resume never reaches this.
  std::error_code ec;
  std::filesystem::resize_file(resume_path_, *resume_bytes_, ec);
  if (ec) {
    throw std::runtime_error("JsonlTraceWriter: cannot truncate " + resume_path_ +
                             ": " + ec.message());
  }
  out_->seekp(static_cast<std::streamoff>(*resume_bytes_));
  resume_bytes_.reset();
}

void JsonlTraceWriter::write_line(std::string line) {
  truncate_to_cursor();
  *out_ << line << '\n';
  ++lines_;
  if (options_.flush_every_event) out_->flush();
}

void JsonlTraceWriter::on_run_begin(const RunBeginEvent& event) {
  JsonObjectWriter w;
  w.begin();
  w.field("event", "run_begin");
  w.field("sampler", event.sampler);
  w.field("seed", event.seed);
  w.field("steps", event.steps);
  w.field("num_devices", event.num_devices);
  w.field("num_edges", event.num_edges);
  w.field("cloud_interval", event.cloud_interval);
  if (!event.fault_spec.empty()) w.field("faults", event.fault_spec);
  if (!event.codec_spec.empty()) w.field("codec", event.codec_spec);
  write_line(w.end());
}

void JsonlTraceWriter::on_step_begin(const StepBeginEvent& event) {
  if (!options_.step_events) return;
  JsonObjectWriter w;
  w.begin();
  w.field("event", "step");
  w.field("t", event.t);
  w.field("active_edges", event.active_edges);
  w.field("devices_present", event.devices_present);
  write_line(w.end());
}

void JsonlTraceWriter::on_device_trained(const DeviceTrainedEvent& event) {
  if (!options_.device_events) return;
  JsonObjectWriter w;
  w.begin();
  w.field("event", "device");
  w.field("t", event.t);
  w.field("device", static_cast<std::uint64_t>(event.device));
  w.field("edge", event.edge);
  w.field("q", event.q);
  w.field("mean_loss", event.mean_loss);
  w.field("last_grad_sq_norm", event.last_grad_sq_norm);
  write_line(w.end());
}

void JsonlTraceWriter::on_edge_aggregated(const EdgeAggregatedEvent& event) {
  JsonObjectWriter w;
  w.begin();
  w.field("event", "edge_agg");
  w.field("t", event.t);
  w.field("edge", event.edge);
  w.field("capacity", event.capacity);
  w.field("num_devices", event.num_devices);
  w.field("num_sampled", event.num_sampled);
  w.raw_field("q", q_summary_json(event.q));
  w.field("ht_weight_sum", event.ht_weight_sum);
  w.field("ht_weight_variance", event.ht_weight_variance);
  if (event.faults.active) w.raw_field("faults", fault_summary_json(event.faults));
  write_line(w.end());
}

void JsonlTraceWriter::on_cloud_round(const CloudRoundEvent& event) {
  JsonObjectWriter w;
  w.begin();
  w.field("event", "cloud_round");
  w.field("t", event.t);
  w.field("round", event.round);
  w.field("num_edges", event.num_edges);
  if (event.faults_active) w.field("uploads_lost", event.lost_edges);
  if (!event.sampler.empty()) {
    w.raw_field("g_squared_summary", summary_json(event.sampler.g_squared));
    if (options_.sampler_arrays) {
      w.field("g_squared", event.sampler.g_squared);
      w.field("buffer_sizes", event.sampler.buffer_sizes);
      w.field("participations", event.sampler.participations);
    }
  }
  write_line(w.end());
}

void JsonlTraceWriter::on_eval(const EvalEvent& event) {
  JsonObjectWriter w;
  w.begin();
  w.field("event", "eval");
  w.field("t", event.t);
  w.field("test_accuracy", event.test_accuracy);
  w.field("test_loss", event.test_loss);
  w.field("train_loss", event.train_loss);
  w.field("participants", event.participants);
  w.field("global_grad_sq_norm", event.global_grad_sq_norm);
  write_line(w.end());
}

void JsonlTraceWriter::on_checkpoint(const CheckpointEvent& event) {
  JsonObjectWriter w;
  w.begin();
  w.field("event", "checkpoint");
  w.field("t", event.t);
  w.field("steps", event.steps);
  write_line(w.end());
}

std::optional<TraceCursor> JsonlTraceWriter::checkpoint_cursor() {
  truncate_to_cursor();
  out_->flush();
  const std::ostream::pos_type pos = out_->tellp();
  if (pos < 0) return std::nullopt;
  TraceCursor cursor;
  cursor.byte_offset = static_cast<std::uint64_t>(pos);
  cursor.lines = lines_;
  return cursor;
}

void JsonlTraceWriter::on_run_end(const RunEndEvent& event) {
  JsonObjectWriter w;
  w.begin();
  w.field("event", "run_end");
  w.field("steps", event.steps);
  w.field("cloud_rounds", event.cloud_rounds);
  if (event.phases != nullptr) {
    w.raw_field("phases", phases_json(*event.phases));
    w.field("phase_total_s", event.phases->total_seconds());
  }
  if (event.registry != nullptr) {
    w.raw_field("metrics", registry_json(*event.registry));
  }
  if (event.ledger != nullptr) {
    w.raw_field("comm", comm_json(event));
  }
  write_line(w.end());
  out_->flush();
}

}  // namespace mach::obs
