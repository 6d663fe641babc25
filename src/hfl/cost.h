// Communication-cost accounting for the hierarchical wireless network.
//
// The paper frames device sampling as minimising convergence error under
// *time-averaged cost constraints* (the per-edge channel budget K_n). The
// engine's Transport (hfl/transport.h) charges every model message the
// simulated system exchanges to `ledger`, per link and at the link codec's
// *encoded* size, so experiments can report cost alongside time-to-accuracy:
//   * device <-> edge: one model download per sampled device per step
//     (Eq. 4's starting point) and one model upload per attempt after local
//     updating;
//   * oracle probes (MACH-P only): one extra model download per probed
//     device per step;
//   * edge <-> cloud: per cloud round (Eq. 6), each edge uploads its model
//     and receives the new global model.
// The ledger is the only message count. assumed_fp32_bytes() prices the same
// messages at uncompressed fp32, for compression-ratio readouts.
#pragma once

#include <cassert>
#include <cstddef>

#include "comm/ledger.h"

namespace mach::hfl {

struct CommunicationCost {
  /// Scalar parameters per model message (for the fp32 comparison).
  std::size_t model_parameters = 0;
  /// Messages and encoded bytes per link.
  comm::ByteLedger ledger;
  /// Sticky accumulation-error flag: set when operator+= folded together
  /// accumulators with different nonzero model_parameters. The fp32
  /// comparison is under-counted past that point; the ledger (per-message
  /// charges) stays exact. Surfaced by tools/trace_summary.
  bool mixed_model_sizes = false;

  /// Total bytes the ledger's messages would take as uncompressed float32
  /// parameters on every link (the pre-codec reporting convention).
  std::size_t assumed_fp32_bytes() const noexcept {
    return static_cast<std::size_t>(ledger.total_messages()) * model_parameters *
           sizeof(float);
  }

  CommunicationCost& operator+=(const CommunicationCost& other) noexcept {
    ledger += other.ledger;
    mixed_model_sizes |= other.mixed_model_sizes;
    // model_parameters is a per-message size, not a count: accumulating runs
    // of the same model must keep it (a default-constructed accumulator has
    // 0). Mixing different model sizes in one accumulator makes the fp32
    // product meaningless — assert in debug, and record the mix in the
    // sticky flag either way so reports can surface it; the max keeps
    // assumed_fp32_bytes() a lower bound.
    if (model_parameters != 0 && other.model_parameters != 0 &&
        model_parameters != other.model_parameters) {
      mixed_model_sizes = true;
      assert(!"CommunicationCost: accumulating mixed model sizes "
              "(assumed_fp32_bytes under-counts; use the byte ledger)");
    }
    if (other.model_parameters > model_parameters) {
      model_parameters = other.model_parameters;
    }
    return *this;
  }
};

}  // namespace mach::hfl
