#include "nn/activations.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.h"

namespace mach::nn {

const tensor::Tensor& ReLU::forward(const tensor::Tensor& input) {
  if (!output_.same_shape(input)) output_ = tensor::Tensor(input.shape());
  tensor::relu_forward(input, output_);
  return output_;
}

const tensor::Tensor& ReLU::backward(const tensor::Tensor& grad_output) {
  if (!grad_input_.same_shape(output_)) grad_input_ = tensor::Tensor(output_.shape());
  tensor::relu_backward(output_, grad_output, grad_input_);
  return grad_input_;
}

const tensor::Tensor& MaxPool2x2::forward(const tensor::Tensor& input) {
  if (input.rank() != 4) throw std::invalid_argument("MaxPool2x2: rank-4 input required");
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), c = input.dim(1);
  const std::size_t oh = input.dim(2) / 2, ow = input.dim(3) / 2;
  if (output_.rank() != 4 || output_.dim(0) != batch || output_.dim(1) != c ||
      output_.dim(2) != oh || output_.dim(3) != ow) {
    output_ = tensor::Tensor({batch, c, oh, ow});
  }
  tensor::maxpool2x2_forward(input, output_, argmax_);
  return output_;
}

const tensor::Tensor& MaxPool2x2::backward(const tensor::Tensor& grad_output) {
  if (!grad_output.same_shape(output_)) {
    throw std::invalid_argument("MaxPool2x2::backward: bad grad shape");
  }
  if (grad_input_.shape() != input_shape_) grad_input_ = tensor::Tensor(input_shape_);
  tensor::maxpool2x2_backward(grad_output, argmax_, grad_input_);
  return grad_input_;
}

const tensor::Tensor& Flatten::forward(const tensor::Tensor& input) {
  if (input.rank() < 2) throw std::invalid_argument("Flatten: rank >= 2 required");
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  const std::size_t features = input.numel() / batch;
  if (output_.rank() != 2 || output_.dim(0) != batch || output_.dim(1) != features) {
    output_ = tensor::Tensor({batch, features});
  }
  std::copy(input.flat().begin(), input.flat().end(), output_.flat().begin());
  return output_;
}

const tensor::Tensor& Flatten::backward(const tensor::Tensor& grad_output) {
  if (grad_output.numel() != tensor::Tensor::shape_numel(input_shape_)) {
    throw std::invalid_argument("Flatten::backward: element count mismatch");
  }
  if (grad_input_.shape() != input_shape_) {
    grad_input_ = tensor::Tensor(input_shape_);
  }
  std::copy(grad_output.flat().begin(), grad_output.flat().end(),
            grad_input_.flat().begin());
  return grad_input_;
}

}  // namespace mach::nn
