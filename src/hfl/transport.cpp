#include "hfl/transport.h"

#include "ckpt/bytes.h"
#include "obs/span_profiler.h"

namespace mach::hfl {

namespace {
/// The ledger's links in snapshot order.
constexpr comm::LinkTraffic comm::ByteLedger::*kLedgerLinks[] = {
    &comm::ByteLedger::device_download, &comm::ByteLedger::device_upload,
    &comm::ByteLedger::retry_upload,    &comm::ByteLedger::probe_download,
    &comm::ByteLedger::edge_upload,     &comm::ByteLedger::cloud_broadcast};
}  // namespace

Transport::Transport(const comm::CommConfig& config, std::size_t num_devices,
                     std::size_t num_edges, std::size_t param_count)
    : param_count_(param_count),
      lossy_(!config.all_fp32()),
      downlinks_(num_edges) {
  const auto link = [param_count](const comm::CodecSpec& spec) {
    Link out{comm::make_codec(spec), 0};
    out.bytes = out.codec->encoded_bytes(param_count);
    return out;
  };
  device_up_ = link(config.device_up);
  device_down_ = link(config.device_down);
  probe_ = link(config.probe);
  edge_up_ = link(config.edge_up);
  cloud_down_ = link(config.cloud_down);
  if (device_up_.codec->stateful()) residuals_.reset(num_devices, param_count);
}

void Transport::begin_run(obs::MetricsRegistry& registry,
                          const std::vector<float>& global) {
  cost_ = CommunicationCost{};
  cost_.model_parameters = param_count_;
  // Residuals start empty (allocated on a device's first upload) and the
  // reference starts at the initial global model every edge was built with.
  if (residuals_.enabled()) residuals_.reset(residuals_.num_devices(), param_count_);
  last_broadcast_.clear();
  // The codec counters exist only when some link transcodes, so an all-fp32
  // run keeps the registry snapshot (and the run_end line) of pre-codec runs.
  encodes_ = decodes_ = nullptr;
  if (lossy_) {
    last_broadcast_ = global;
    encodes_ = &registry.counter("comm_encodes");
    decodes_ = &registry.counter("comm_decodes");
  }
}

const std::vector<float>& Transport::transcode(
    const Link& link, std::span<const float> values,
    std::span<const float> reference, std::span<float> residual,
    std::vector<float>& out, std::size_t t, std::int64_t id) {
  {
    const obs::SpanGuard span("comm.encode", static_cast<std::int64_t>(t), id);
    link.codec->encode(values, reference, residual, wire_);
  }
  encodes_->add();
  {
    const obs::SpanGuard span("comm.decode", static_cast<std::int64_t>(t), id);
    link.codec->decode(wire_, values.size(), reference, out);
  }
  decodes_->add();
  return out;
}

const std::vector<float>& Transport::probe(const std::vector<float>& edge_model,
                                           std::size_t devices, std::size_t t,
                                           std::size_t edge) {
  cost_.ledger.probe_download.add(devices, probe_.bytes);
  if (probe_.codec->lossless()) return edge_model;
  return transcode(probe_, edge_model, {}, {}, probe_model_, t,
                   static_cast<std::int64_t>(edge));
}

const std::vector<float>& Transport::download(const std::vector<float>& edge_model,
                                              std::size_t devices, std::size_t t,
                                              std::size_t edge) {
  cost_.ledger.device_download.add(devices, device_down_.bytes);
  if (device_down_.codec->lossless() || devices == 0) return edge_model;
  return transcode(device_down_, edge_model, {}, {}, downlinks_[edge], t,
                   static_cast<std::int64_t>(edge));
}

void Transport::upload_attempts(std::size_t attempts, std::size_t retries) {
  cost_.ledger.device_upload.add(attempts, device_up_.bytes);
  cost_.ledger.retry_upload.add(retries, device_up_.bytes);
}

const std::vector<float>& Transport::upload(std::uint32_t device,
                                            const std::vector<float>& params,
                                            const std::vector<float>& received,
                                            std::size_t t) {
  if (device_up_.codec->lossless()) return params;
  // Fetched right before the encode: allocating a residual may move the slab.
  const std::span<float> residual =
      residuals_.enabled() ? residuals_.get_or_alloc(device) : std::span<float>{};
  return transcode(device_up_, params, received, residual, decoded_upload_, t,
                   device);
}

const std::vector<float>& Transport::edge_upload(const std::vector<float>& edge_model,
                                                 std::size_t t, std::size_t edge) {
  if (edge_up_.codec->lossless()) return edge_model;
  return transcode(edge_up_, edge_model, last_broadcast_, {}, decoded_upload_, t,
                   static_cast<std::int64_t>(edge));
}

const std::vector<float>& Transport::broadcast(const std::vector<float>& global,
                                               std::size_t t) {
  const std::size_t edges = downlinks_.size();  // one buffer per edge
  cost_.ledger.edge_upload.add(edges, edge_up_.bytes);
  cost_.ledger.cloud_broadcast.add(edges, cloud_down_.bytes);
  const std::vector<float>& received =
      cloud_down_.codec->lossless()
          ? global
          : transcode(cloud_down_, global, {}, {}, broadcast_model_, t, -1);
  // Deterministic encoding lets both ends reproduce the reference exactly.
  if (lossy_) last_broadcast_ = received;
  return received;
}

void Transport::save_state(ckpt::ByteWriter& out) const {
  for (const auto link : kLedgerLinks) {
    out.u64((cost_.ledger.*link).messages);
    out.u64((cost_.ledger.*link).bytes);
  }
  // Codec model state only exists on lossy runs; residuals are empty until a
  // device first uploads through a stateful codec.
  out.boolean(lossy_);
  if (lossy_) {
    residuals_.save_state(out);
    out.vec_f32(last_broadcast_);
  }
}

void Transport::load_state(ckpt::ByteReader& in) {
  for (const auto link : kLedgerLinks) {
    (cost_.ledger.*link).messages = in.u64();
    (cost_.ledger.*link).bytes = in.u64();
  }
  if (in.boolean() != lossy_) {
    // Unreachable in practice: the codec spec feeds the run fingerprint.
    throw ckpt::CorruptPayload("checkpoint: codec state/config mismatch");
  }
  if (lossy_) {
    residuals_.load_state(in);
    last_broadcast_ = in.vec_f32();
    if (last_broadcast_.size() != param_count_) {
      throw ckpt::CorruptPayload("checkpoint: broadcast model size mismatch");
    }
  }
}

}  // namespace mach::hfl
