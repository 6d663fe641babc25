#include "nn/conv2d.h"

#include <cmath>
#include <stdexcept>

namespace mach::nn {

ConvParams::ConvParams(std::size_t in_channels, std::size_t out_channels,
                       std::size_t kernel, std::size_t pad)
    : weight({out_channels, in_channels, kernel, kernel}),
      bias({out_channels}),
      grad_weight({out_channels, in_channels, kernel, kernel}),
      grad_bias({out_channels}) {
  spec.in_channels = in_channels;
  spec.out_channels = out_channels;
  spec.kernel = kernel;
  spec.pad = pad;
  spec.stride = 1;
}

void ConvParams::init(common::Rng& rng) {
  const double fan_in =
      static_cast<double>(spec.in_channels * spec.kernel * spec.kernel);
  const double stddev = std::sqrt(2.0 / fan_in);
  for (auto& w : weight.flat()) w = static_cast<float>(rng.normal(0.0, stddev));
  bias.zero();
}

std::vector<ParamRef> ConvParams::refs() {
  return {{&weight, &grad_weight, "weight"}, {&bias, &grad_bias, "bias"}};
}

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t pad)
    : params_(in_channels, out_channels, kernel, pad) {}

const tensor::Tensor& Conv2D::forward(const tensor::Tensor& input) {
  const tensor::ConvSpec& spec = params_.spec;
  if (input.rank() != 4 || input.dim(1) != spec.in_channels) {
    throw std::invalid_argument("Conv2D::forward: bad input " + input.shape_string());
  }
  input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t oh = spec.out_dim(input.dim(2));
  const std::size_t ow = spec.out_dim(input.dim(3));
  if (output_.rank() != 4 || output_.dim(0) != batch ||
      output_.dim(1) != spec.out_channels || output_.dim(2) != oh ||
      output_.dim(3) != ow) {
    output_ = tensor::Tensor({batch, spec.out_channels, oh, ow});
  }
  tensor::conv2d_forward(input_, params_.weight, params_.bias, spec, output_);
  return output_;
}

const tensor::Tensor& Conv2D::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape");
  }
  if (!grad_input_.same_shape(input_)) {
    grad_input_ = tensor::Tensor(input_.shape());
  }
  tensor::conv2d_backward(input_, params_.weight, grad_output, params_.spec,
                          &grad_input_, params_.grad_weight, params_.grad_bias,
                          arena_);
  return grad_input_;
}

void Conv2D::backward_params(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape");
  }
  tensor::conv2d_backward(input_, params_.weight, grad_output, params_.spec,
                          nullptr, params_.grad_weight, params_.grad_bias,
                          arena_);
}

}  // namespace mach::nn
