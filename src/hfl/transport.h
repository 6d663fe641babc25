// How a model crosses a link of the hierarchical network.
//
// Every model message of Algorithm 1 — downloads and MACH-P probes (Eq. 4),
// device uploads (Eq. 5), edge uploads and cloud broadcasts (Eq. 6) — goes
// through one call here. The call charges the byte ledger at the link
// codec's encoded size (src/comm/) and returns the model the receiver sees:
// on an fp32 link the sender's own vector, so the all-fp32 default takes the
// exact pre-codec model path; on a lossy link the decoded message,
// transcoded on the calling (coordinator) thread.
//
// The Transport owns all codec state of a run: the link codecs, the wire and
// decode buffers, the upload codec's per-device error-feedback residuals and
// the last broadcast (the reference of delta-coded edge uploads). Returned
// references stay valid until the next call that decodes into the same
// buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "comm/config.h"
#include "hfl/cost.h"
#include "hfl/residual_pool.h"
#include "obs/registry.h"

namespace mach::hfl {

class Transport {
 public:
  /// Builds the link codecs of `config` for models of `param_count`
  /// parameters. Throws std::invalid_argument on a codec parameter out of
  /// range.
  Transport(const comm::CommConfig& config, std::size_t num_devices,
            std::size_t num_edges, std::size_t param_count);

  /// True when some link is not the fp32 identity.
  bool lossy() const noexcept { return lossy_; }

  /// Traffic charged since begin_run (live during a run).
  const CommunicationCost& cost() const noexcept { return cost_; }

  /// Starts a run: zeroes the ledger, empties the residuals, takes `global`
  /// as the last broadcast and, when some link is lossy, registers the
  /// comm_encodes/comm_decodes counters. Call it before a resume restores
  /// the registry.
  void begin_run(obs::MetricsRegistry& registry, const std::vector<float>& global);

  /// Probe broadcast to `devices` devices: one message each, one decode.
  const std::vector<float>& probe(const std::vector<float>& edge_model,
                                  std::size_t devices, std::size_t t,
                                  std::size_t edge);

  /// Download by the edge's `devices` sampled devices: one message each and,
  /// when there is one, a decode into the edge's own buffer (valid until
  /// that edge's next download).
  const std::vector<float>& download(const std::vector<float>& edge_model,
                                     std::size_t devices, std::size_t t,
                                     std::size_t edge);

  /// Charges `attempts` device uploads, `retries` of them retransmissions.
  /// Sizes do not depend on the values, so lost attempts encode nothing.
  void upload_attempts(std::size_t attempts, std::size_t retries);

  /// A device's trained `params` as its edge decodes them, coded against
  /// `received` (the model it trained from) and its residual.
  const std::vector<float>& upload(std::uint32_t device,
                                   const std::vector<float>& params,
                                   const std::vector<float>& received,
                                   std::size_t t);

  /// An edge model as the cloud decodes it, coded against the last
  /// broadcast.
  const std::vector<float>& edge_upload(const std::vector<float>& edge_model,
                                        std::size_t t, std::size_t edge);

  /// Closes a cloud round: charges one upload and one broadcast per edge
  /// (lost uploads and edges without devices included) and returns `global`
  /// as the edges decode it, the next round's reference.
  const std::vector<float>& broadcast(const std::vector<float>& global,
                                      std::size_t t);

  /// Snapshot section: the ledger, then the codec state of lossy runs.
  void save_state(ckpt::ByteWriter& out) const;
  /// Throws ckpt::CorruptPayload on a malformed or mismatched section.
  void load_state(ckpt::ByteReader& in);

 private:
  /// One link's codec and the encoded size of one model message on it.
  struct Link {
    std::unique_ptr<comm::Codec> codec;
    std::uint64_t bytes = 0;
  };

  /// Encodes `values` into the wire buffer and decodes it into `out`, with
  /// comm.encode/comm.decode spans; returns `out`.
  const std::vector<float>& transcode(const Link& link,
                                      std::span<const float> values,
                                      std::span<const float> reference,
                                      std::span<float> residual,
                                      std::vector<float>& out, std::size_t t,
                                      std::int64_t id);

  std::size_t param_count_ = 0;
  bool lossy_ = false;
  Link device_up_, device_down_, probe_, edge_up_, cloud_down_;

  CommunicationCost cost_;
  ResidualPool residuals_;              // upload error feedback, per device
  std::vector<float> last_broadcast_;   // lossy runs only
  comm::Encoded wire_;
  std::vector<std::vector<float>> downlinks_;  // decoded download, per edge
  std::vector<float> probe_model_;      // decoded probe broadcast
  std::vector<float> decoded_upload_;   // decoded device or edge upload
  std::vector<float> broadcast_model_;  // decoded cloud broadcast
  obs::Counter* encodes_ = nullptr;     // set by begin_run when lossy
  obs::Counter* decodes_ = nullptr;
};

}  // namespace mach::hfl
