#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace mach::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      grad_weight_({in_features, out_features}),
      grad_bias_({out_features}) {}

void Dense::init_params(common::Rng& rng) {
  // He-normal fan-in initialisation; biases start at zero.
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_));
  for (auto& w : weight_.flat()) w = static_cast<float>(rng.normal(0.0, stddev));
  bias_.zero();
}

const tensor::Tensor& Dense::forward(const tensor::Tensor& input) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected [batch, " +
                                std::to_string(in_) + "], got " + input.shape_string());
  }
  input_ = input;  // cache for backward
  const std::size_t batch = input.dim(0);
  if (output_.rank() != 2 || output_.dim(0) != batch || output_.dim(1) != out_) {
    output_ = tensor::Tensor({batch, out_});
  }
  tensor::linear_forward(input_, weight_, bias_, output_);
  return output_;
}

void Dense::backward_params(const tensor::Tensor& grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(0) != input_.dim(0) ||
      grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: bad grad shape");
  }
  // dW = x^T * dy ; db = column sums of dy
  tensor::gemm_at_b(input_, grad_output, grad_weight_);
  tensor::sum_rows(grad_output, grad_bias_);
}

const tensor::Tensor& Dense::backward(const tensor::Tensor& grad_output) {
  backward_params(grad_output);
  // dx = dy * W^T
  const std::size_t batch = input_.dim(0);
  if (grad_input_.rank() != 2 || grad_input_.dim(0) != batch ||
      grad_input_.dim(1) != in_) {
    grad_input_ = tensor::Tensor({batch, in_});
  }
  tensor::gemm_a_bt(grad_output, weight_, grad_input_);
  return grad_input_;
}

std::vector<ParamRef> Dense::params() {
  return {{&weight_, &grad_weight_, "weight"}, {&bias_, &grad_bias_, "bias"}};
}

}  // namespace mach::nn
