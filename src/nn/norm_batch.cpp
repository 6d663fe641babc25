#include "nn/norm_batch.h"

#include <algorithm>
#include <stdexcept>

namespace mach::nn {

void GradNormBatch::add(Sequential& model, double* result) {
  const std::vector<ParamRef>& refs = model.param_refs();
  if (sizes_.empty()) {
    for (const ParamRef& ref : refs) sizes_.push_back(ref.grad->numel());
    for (const std::size_t size : sizes_) lane_size_ += size;
    staging_.resize(kLanes * lane_size_);
  }
  if (refs.size() != sizes_.size()) {
    throw std::invalid_argument("GradNormBatch::add: model shape differs");
  }
  for (std::size_t t = 0; t < refs.size(); ++t) {
    if (refs[t].grad->numel() != sizes_[t]) {
      throw std::invalid_argument("GradNormBatch::add: model shape differs");
    }
  }
  if (pending_ == kLanes) flush();
  float* lane = staging_.data() + pending_ * lane_size_;
  for (const ParamRef& ref : refs) {
    lane = std::copy(ref.grad->flat().begin(), ref.grad->flat().end(), lane);
  }
  results_[pending_++] = result;
}

void GradNormBatch::flush() {
  if (pending_ == 0) return;
  double totals[kLanes] = {};
  double part[kLanes] = {};
  const float* tensor = staging_.data();
  for (const std::size_t size : sizes_) {
    tensor::kernels::squared_norms(pending_, size, tensor, lane_size_, part);
    for (std::size_t l = 0; l < pending_; ++l) totals[l] += part[l];
    tensor += size;
  }
  for (std::size_t l = 0; l < pending_; ++l) *results_[l] = totals[l];
  pending_ = 0;
}

}  // namespace mach::nn
