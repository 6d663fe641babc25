// 2-D convolution layer (square kernel, stride 1, symmetric zero padding).
// Input/output layout is NCHW. Forward and backward each run the whole
// minibatch through one kernel (kernels::conv_forward / conv_backward), which
// reads the images in place or from zero-padded copies; no im2col matrix is
// built.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace mach::nn {

/// A convolution's parameters: weight [out_c, in_c, k, k], bias [out_c] and
/// their gradients. Conv2D and ConvBlock each own one, so both initialise
/// and list their parameters the same way.
struct ConvParams {
  ConvParams(std::size_t in_channels, std::size_t out_channels,
             std::size_t kernel, std::size_t pad);

  /// He initialisation of the weight (fan-in in_c * k * k); bias zero.
  void init(common::Rng& rng);
  /// {weight, bias}, each with its gradient.
  std::vector<ParamRef> refs();

  tensor::ConvSpec spec;
  tensor::Tensor weight;
  tensor::Tensor bias;
  tensor::Tensor grad_weight;
  tensor::Tensor grad_bias;
};

class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t pad);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  /// Parameter gradients only: skips the input gradient.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override { return params_.refs(); }
  void init_params(common::Rng& rng) override { params_.init(rng); }
  std::string name() const override { return "Conv2D"; }

  const tensor::ConvSpec& spec() const noexcept { return params_.spec; }
  const tensor::ScratchArena* scratch_arena() const override { return &arena_; }

 private:
  ConvParams params_;
  tensor::Tensor input_;
  tensor::Tensor output_;
  tensor::Tensor grad_input_;
  tensor::ScratchArena arena_;  // conv_backward's per-minibatch scratch
};

}  // namespace mach::nn
