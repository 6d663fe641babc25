#include "nn/conv_block.h"

#include <stdexcept>

namespace mach::nn {

ConvBlock::ConvBlock(std::size_t in_channels, std::size_t out_channels,
                     std::size_t kernel, std::size_t pad)
    : params_(in_channels, out_channels, kernel, pad) {}

const tensor::Tensor& ConvBlock::forward(const tensor::Tensor& input) {
  const tensor::ConvSpec& spec = params_.spec;
  if (input.rank() != 4 || input.dim(1) != spec.in_channels) {
    throw std::invalid_argument("ConvBlock::forward: bad input " +
                                input.shape_string());
  }
  input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t ph = spec.out_dim(input.dim(2)) / 2;
  const std::size_t pw = spec.out_dim(input.dim(3)) / 2;
  if (output_.rank() != 4 || output_.dim(0) != batch ||
      output_.dim(1) != spec.out_channels || output_.dim(2) != ph ||
      output_.dim(3) != pw) {
    output_ = tensor::Tensor({batch, spec.out_channels, ph, pw});
  }
  tensor::conv2d_relu_pool_forward(input_, params_.weight, params_.bias, spec,
                                   output_, codes_, arena_);
  return output_;
}

const tensor::Tensor& ConvBlock::conv_grad(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument("ConvBlock::backward: bad grad shape");
  }
  const std::size_t batch = output_.dim(0), channels = output_.dim(1);
  const std::size_t oh = 2 * output_.dim(2), ow = 2 * output_.dim(3);
  if (grad_conv_.rank() != 4 || grad_conv_.dim(0) != batch ||
      grad_conv_.dim(1) != channels || grad_conv_.dim(2) != oh ||
      grad_conv_.dim(3) != ow) {
    grad_conv_ = tensor::Tensor({batch, channels, oh, ow});
  }
  tensor::relu_pool_backward(output_, codes_, grad_output, grad_conv_);
  return grad_conv_;
}

const tensor::Tensor& ConvBlock::backward(const tensor::Tensor& grad_output) {
  const tensor::Tensor& grad_conv = conv_grad(grad_output);
  if (!grad_input_.same_shape(input_)) {
    grad_input_ = tensor::Tensor(input_.shape());
  }
  tensor::conv2d_backward(input_, params_.weight, grad_conv, params_.spec,
                          &grad_input_, params_.grad_weight, params_.grad_bias,
                          arena_);
  return grad_input_;
}

void ConvBlock::backward_params(const tensor::Tensor& grad_output) {
  tensor::conv2d_backward(input_, params_.weight, conv_grad(grad_output),
                          params_.spec, nullptr, params_.grad_weight,
                          params_.grad_bias, arena_);
}

}  // namespace mach::nn
