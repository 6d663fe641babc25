// 2-D convolution layer (square kernel, stride 1, symmetric zero padding).
// Input/output layout is NCHW. Forward and backward each run the whole
// minibatch through one kernel (kernels::conv_forward / conv_backward), whose
// GEMMs read im2col rows built from the image.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace mach::nn {

class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t pad);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  /// Parameter gradients only: skips the input gradient's GEMM and col2im.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  void init_params(common::Rng& rng) override;
  std::string name() const override { return "Conv2D"; }

  const tensor::ConvSpec& spec() const noexcept { return spec_; }
  const tensor::ScratchArena* scratch_arena() const override { return &arena_; }

 private:
  tensor::ConvSpec spec_;
  tensor::Tensor weight_;       // [out_c, in_c, k, k]
  tensor::Tensor bias_;         // [out_c]
  tensor::Tensor grad_weight_;
  tensor::Tensor grad_bias_;
  tensor::Tensor input_;
  tensor::Tensor output_;
  tensor::Tensor grad_input_;
  tensor::ScratchArena arena_;  // conv_backward's per-minibatch scratch
};

}  // namespace mach::nn
