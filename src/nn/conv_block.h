// One conv stage of the paper's CNNs as one layer: Conv2D -> ReLU ->
// MaxPool2x2, bit for bit, without their full-resolution activations.
//
// The chain keeps the conv output, the ReLU output and a 4-byte pool index
// per window for the last batch it ran (a 256-example evaluation chunk, in
// the simulator). ConvBlock keeps the pooled output and a one-byte winner
// code per window: the forward convolves a block of images in the vector
// lanes and applies the ReLU and the pool to the conv tile while it is in
// registers, so the conv output is never stored; its scratch arena holds
// one block's lanes, whatever the batch (DESIGN.md §9). The backward
// expands the pooled gradient into the conv output's (sized by the training
// batch) and runs the same conv_backward as Conv2D.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv2d.h"

namespace mach::nn {

class ConvBlock final : public Layer {
 public:
  /// A Conv2D(in_channels, out_channels, kernel, pad) followed by ReLU and
  /// MaxPool2x2; the conv output's height and width must be even.
  ConvBlock(std::size_t in_channels, std::size_t out_channels,
            std::size_t kernel, std::size_t pad);

  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  /// Parameter gradients only: skips the input gradient.
  void backward_params(const tensor::Tensor& grad_output) override;
  std::vector<ParamRef> params() override { return params_.refs(); }
  void init_params(common::Rng& rng) override { params_.init(rng); }
  std::string name() const override { return "ConvBlock"; }

  /// Holds one block's forward lanes in the forward and conv_backward's
  /// scratch in the backward.
  const tensor::ScratchArena* scratch_arena() const override { return &arena_; }

 private:
  /// The conv output's gradient for `grad_output` (into grad_conv_).
  const tensor::Tensor& conv_grad(const tensor::Tensor& grad_output);

  ConvParams params_;
  tensor::Tensor input_;
  tensor::Tensor output_;            // pooled
  std::vector<std::uint8_t> codes_;  // each window's winner
  tensor::Tensor grad_conv_;
  tensor::Tensor grad_input_;
  tensor::ScratchArena arena_;
};

}  // namespace mach::nn
