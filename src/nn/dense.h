// Fully-connected layer: y = x W + b, x[batch, in], W[in, out], b[out].
#pragma once

#include "nn/layer.h"

namespace mach::nn {

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  /// Parameter gradients only: skips dx = dy Wᵀ.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  void init_params(common::Rng& rng) override;
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  tensor::Tensor weight_;       // [in, out]
  tensor::Tensor bias_;         // [out]
  tensor::Tensor grad_weight_;  // [in, out]
  tensor::Tensor grad_bias_;    // [out]
  tensor::Tensor input_;        // cached forward input
  tensor::Tensor output_;
  tensor::Tensor grad_input_;
};

}  // namespace mach::nn
