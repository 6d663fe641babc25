// Batched gradient norms: Sequential::grad_squared_norm() for up to eight
// models' gradients at once.
//
// A norm is one serial double chain per gradient tensor (kernels.h), so a
// single norm cannot go faster than its dependent additions. Eight norms of
// the same shape can: kernels::squared_norms runs eight chains side by side,
// one per vector lane. The simulator trains and probes hundreds of same-shape
// models per edge round on one scratch model per thread, so it stages each
// model's gradients here right after its backward pass and reads the norms
// once the batch has been flushed.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/model.h"
#include "tensor/kernels/kernels.h"

namespace mach::nn {

class GradNormBatch {
 public:
  static constexpr std::size_t kLanes = tensor::kernels::kMaxNormLanes;

  /// Copies `model`'s current gradients into the next staging lane; `*result`
  /// receives their grad_squared_norm(), bit for bit, when the batch is
  /// flushed. Flushes first when every lane is taken. Every model added to
  /// one batch must have the same parameter shapes (std::invalid_argument
  /// otherwise); `result` must stay valid until the flush.
  void add(Sequential& model, double* result);

  /// Evaluates every staged lane, writes each result and empties the batch:
  /// per lane, one squared_norms chain per parameter tensor, summed in
  /// param_refs() order from 0.0 — grad_squared_norm()'s additions.
  void flush();

  std::size_t pending() const noexcept { return pending_; }

 private:
  std::vector<std::size_t> sizes_;  // element count per parameter tensor
  std::size_t lane_size_ = 0;       // sum of sizes_
  std::vector<float> staging_;      // kLanes lanes of lane_size_ floats
  double* results_[kLanes] = {};
  std::size_t pending_ = 0;
};

}  // namespace mach::nn
