// Encoded-byte ledger: what the simulated network actually moved, per link.
//
// Per link, the ledger counts the model messages that crossed it and how many
// *bytes* they were after the link's codec ran — the quantity the paper's
// channel-budget framing (Eq. 3–4) actually constrains. The engine's
// Transport charges every message at the codec's encoded size, including
// messages whose payload never arrived (dropped uploads consumed no bytes
// because the device vanished before transmitting, but straggler
// retransmissions pay the full encoded payload per attempt).
//
// Codec wire sizes are value-independent (Codec::encoded_bytes), so the
// ledger is pure integer arithmetic: maintaining it never touches the model
// path, which is what keeps the all-fp32 default bitwise identical to a run
// without the comm layer.
#pragma once

#include <cstdint>

namespace mach::comm {

/// Message/byte counters of one directed link class.
struct LinkTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  /// Charges `count` messages of `bytes_per_message` encoded bytes each.
  void add(std::uint64_t count, std::uint64_t bytes_per_message) noexcept {
    messages += count;
    bytes += count * bytes_per_message;
  }

  LinkTraffic& operator+=(const LinkTraffic& other) noexcept {
    messages += other.messages;
    bytes += other.bytes;
    return *this;
  }

  friend bool operator==(const LinkTraffic&, const LinkTraffic&) = default;
};

struct ByteLedger {
  LinkTraffic device_download;   // edge model -> device (Eq. 4's start)
  LinkTraffic device_upload;     // trained model -> edge (incl. retries)
  /// Straggler retransmissions (fault layer). These messages are already
  /// part of device_upload — this tracks the redundant share.
  LinkTraffic retry_upload;
  LinkTraffic probe_download;    // oracle probes (MACH-P)
  LinkTraffic edge_upload;       // edge model -> cloud
  LinkTraffic cloud_broadcast;   // global model -> edge

  /// Total unique bytes moved (retry_upload excluded: already counted in
  /// device_upload).
  std::uint64_t total_bytes() const noexcept;
  std::uint64_t total_messages() const noexcept;
  /// Device<->edge bytes only (the per-edge channel-budget view).
  std::uint64_t device_link_bytes() const noexcept;
  /// True when no traffic has been recorded.
  bool empty() const noexcept;

  ByteLedger& operator+=(const ByteLedger& other) noexcept;

  friend bool operator==(const ByteLedger&, const ByteLedger&) = default;
};

}  // namespace mach::comm
