#include "nn/conv2d.h"

#include <cmath>
#include <stdexcept>

namespace mach::nn {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t pad)
    : weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  spec_.in_channels = in_channels;
  spec_.out_channels = out_channels;
  spec_.kernel = kernel;
  spec_.pad = pad;
  spec_.stride = 1;
}

void Conv2D::init_params(common::Rng& rng) {
  const double fan_in =
      static_cast<double>(spec_.in_channels * spec_.kernel * spec_.kernel);
  const double stddev = std::sqrt(2.0 / fan_in);
  for (auto& w : weight_.flat()) w = static_cast<float>(rng.normal(0.0, stddev));
  bias_.zero();
}

const tensor::Tensor& Conv2D::forward(const tensor::Tensor& input) {
  if (input.rank() != 4 || input.dim(1) != spec_.in_channels) {
    throw std::invalid_argument("Conv2D::forward: bad input " + input.shape_string());
  }
  input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t oh = spec_.out_dim(input.dim(2));
  const std::size_t ow = spec_.out_dim(input.dim(3));
  if (output_.rank() != 4 || output_.dim(0) != batch ||
      output_.dim(1) != spec_.out_channels || output_.dim(2) != oh ||
      output_.dim(3) != ow) {
    output_ = tensor::Tensor({batch, spec_.out_channels, oh, ow});
  }
  tensor::conv2d_forward(input_, weight_, bias_, spec_, output_);
  return output_;
}

const tensor::Tensor& Conv2D::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape");
  }
  if (!grad_input_.same_shape(input_)) {
    grad_input_ = tensor::Tensor(input_.shape());
  }
  tensor::conv2d_backward(input_, weight_, grad_output, spec_, &grad_input_,
                          grad_weight_, grad_bias_, arena_);
  return grad_input_;
}

void Conv2D::backward_params(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape");
  }
  tensor::conv2d_backward(input_, weight_, grad_output, spec_, nullptr,
                          grad_weight_, grad_bias_, arena_);
}

std::vector<ParamRef> Conv2D::params() {
  return {{&weight_, &grad_weight_, "weight"}, {&bias_, &grad_bias_, "bias"}};
}

}  // namespace mach::nn
