// ScaleSimulator: the million-device / thousand-edge sampling engine.
//
// The paper-scale HflSimulator carries real models, codecs and datasets and
// keeps every output bitwise stable — but its per-round cost is O(M) in the
// population. ScaleSimulator is the other end of the trade: no neural
// training (device gradients are synthesised from pure hash functions), and
// every per-round pass is sublinear in M so a 1M-device round completes in
// well under a second inside a fixed memory envelope:
//
//   * device state is structure-of-arrays with a fixed per-device byte
//     budget: edge membership in DeviceStateArrays, Algorithm 2's
//     experience in a UcbEstimator (bytes_per_device() documented below);
//   * mobility is a GridMobilityStream — O(movers) per step, no
//     materialised trace, 8-byte-per-device seekable cursor;
//   * Eq. 16–18 sampling runs over per-edge Fenwick trees (incremental
//     weight updates, O(K log M) without-replacement draws) or per-edge
//     alias tables (O(1) batch draws, rebuilt when weights refresh).
//
// Fidelity contract. At scale the engine keeps the paper's *structure* —
// UCB experience updating (Eq. 15, exact: the UcbEstimator MachSampler
// folds into, with its optimistic prior and buffer clearing), transfer
// smoothing S(q̂) (Eq. 17, exact), weighted sampling ∝ smoothed scores —
// but makes two documented approximations to reach sublinear rounds:
//   1. Eq. 16's denominator Σ G~² is maintained incrementally and the
//      stored weights are renormalised lazily: an edge's weights are fully
//      rebuilt when the incremental total drifts >`rebuild_drift` from the
//      one they were computed against, and on a geometric schedule (t
//      doubling) that also refreshes the slowly-moving log-t exploration
//      term. Amortised cost: O(members · log T / T) per round.
//   2. Eq. 18's independent-Bernoulli inclusion (O(M) uniforms per round)
//      becomes exactly-K without-replacement draws proportional to the same
//      smoothed weights (its fixed-size conditional analogue); the cap-at-1
//      corner cannot bind because S(.) maps into [1, 1+α/2).
// Everything is deterministic: same config + seed ⇒ identical round digests,
// and save_state/load_state resume bit-for-bit from any round (verified by
// tests/scale/).
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/bytes.h"
#include "common/rng.h"
#include "core/device_soa.h"
#include "core/transfer.h"
#include "core/ucb.h"
#include "mobility/stream.h"
#include "sampling/alias.h"
#include "sampling/fenwick.h"

namespace mach::core {

struct ScaleConfig {
  std::size_t num_devices = 0;
  std::size_t num_edges = 0;
  std::uint64_t seed = 1;
  /// Expected fraction of each edge's members sampled per round (per-edge
  /// budget K_n = max(1, round(participation * |M_n|))).
  double participation = 0.001;
  /// Rounds between cloud aggregations (UCB refresh cadence, Alg. 2).
  std::size_t cloud_every = 5;
  /// Device dwell time at an edge, uniform in [min_dwell, max_dwell] steps.
  std::uint32_t min_dwell = 4;
  std::uint32_t max_dwell = 16;
  /// Eq. 17 smoothing.
  TransferOptions transfer;
  /// Exploration weight of the Eq. 15 confidence radius.
  double exploration_weight = 1.0;
  /// Rebuild an edge's stored weights when its incremental Σ G~² drifts
  /// this fraction from the denominator they were renormalised against.
  double rebuild_drift = 0.25;
  /// false: exact without-replacement Fenwick draws (default).
  /// true: alias-table batch draws (duplicates dropped — the O(1)-per-draw
  /// Poisson-like mode; tables rebuild only when weights change).
  bool use_alias_draws = false;
};

/// Per-round outcome digest: everything the determinism and scaling tests
/// need without the engine ever materialising an O(M) report.
struct ScaleRoundStats {
  std::size_t t = 0;
  std::size_t movers = 0;        // devices that switched edges this round
  std::size_t participants = 0;  // devices sampled across all edges
  std::size_t weight_rebuilds = 0;  // edges whose weights were renormalised
  /// FNV-1a (ckpt::hash_u64) over (edge, device) pairs in draw order — two
  /// runs agree on every sampled set iff the digests agree every round.
  std::uint64_t sample_digest = 0;
};

class ScaleSimulator {
 public:
  explicit ScaleSimulator(const ScaleConfig& config);

  /// One global round: advance mobility, sample every edge, record
  /// synthetic gradient experience, refresh UCB state on cloud rounds.
  ScaleRoundStats step();

  std::size_t t() const noexcept { return t_; }
  std::size_t num_devices() const noexcept { return config_.num_devices; }
  std::size_t num_edges() const noexcept { return config_.num_edges; }

  /// Current G~² estimate of one device (Eq. 15; tests/introspection).
  double estimate(std::uint32_t device) const { return ucb_.estimate(device); }
  std::size_t participations(std::uint32_t device) const {
    return ucb_.participations(device);
  }
  /// Members of one edge (tests; O(|M_n|)).
  const std::vector<std::uint32_t>& edge_members(std::size_t edge) const {
    return edges_.at(edge).members;
  }

  /// Documented fixed per-device budget: DeviceStateArrays (16) +
  /// UcbEstimator (29) + mobility cursor (8) + edge member entry (4) +
  /// Fenwick tree+values (16) + alias table prob+alias (12) + growth
  /// headroom. memory_bytes() must stay below bytes_per_device() * M +
  /// O(num_edges) — asserted by the tests and the bench/scale RSS gate.
  static constexpr std::size_t bytes_per_device() noexcept { return 128; }

  /// Actual bytes held by all per-device and per-edge structures.
  std::size_t memory_bytes() const noexcept;

  /// Full engine snapshot; load_state resumes bit-for-bit (same future
  /// round digests as the uninterrupted run). Non-mutating.
  void save_state(ckpt::ByteWriter& out) const;
  void load_state(ckpt::ByteReader& in);

 private:
  struct EdgeState {
    std::vector<std::uint32_t> members;  // device id per slot
    sampling::FenwickTree weights;       // smoothed weight per slot
    sampling::AliasTable alias;          // batch-draw mode table
    bool alias_dirty = true;
    double g2_total = 0.0;    // incremental Σ G~² over members
    double ref_total = 0.0;   // denominator the stored weights used
    std::size_t next_rebuild_t = 1;  // geometric renormalisation schedule

    std::size_t memory_bytes() const noexcept {
      return members.capacity() * sizeof(std::uint32_t) +
             weights.memory_bytes() + alias.memory_bytes();
    }
  };

  /// Synthetic ||g||² observation for a participation — a pure function of
  /// (seed, device, t): heterogeneous across devices, noisy across time,
  /// nothing to store or checkpoint.
  double synth_grad_sq(std::uint32_t device, std::size_t t) const;

  /// Eq. 17 smoothing of the Eq. 16 virtual probability under the edge's
  /// current reference denominator.
  double smoothed_weight(double g2_estimate, const EdgeState& edge) const;

  void insert_device(std::uint32_t device, std::uint32_t edge);
  void remove_device(std::uint32_t device);
  /// Re-derives a device's stored weight after its estimate changed,
  /// keeping the edge's incremental Σ G~² exact.
  void refresh_weight(std::uint32_t device);
  /// O(members) renormalisation of one edge against its current total.
  void rebuild_edge(std::size_t n);
  void cloud_refresh();

  ScaleConfig config_;
  TransferFunction transfer_;
  UcbEstimator ucb_;
  DeviceStateArrays devices_;
  std::vector<EdgeState> edges_;
  mobility::GridMobilityStream stream_;
  common::Rng draw_rng_;
  std::size_t t_ = 0;
  // Reused per-round scratch (no steady-state allocation).
  std::vector<std::uint32_t> moved_;
  std::vector<std::uint32_t> sampled_;
  std::vector<double> scratch_;  // weight staging for rebuilds/alias/load
};

}  // namespace mach::core
