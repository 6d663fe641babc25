// Stateless shape-preserving layers: ReLU, MaxPool2x2 and Flatten.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace mach::nn {

class ReLU final : public Layer {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  // Backward masks on the output: y = x > 0 ? x : 0 is positive exactly
  // where x is, so no copy of the input is kept.
  tensor::Tensor output_;
  tensor::Tensor grad_input_;
};

/// 2x2 max pooling with stride 2 over NCHW input (H and W must be even).
class MaxPool2x2 final : public Layer {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2x2"; }

 private:
  std::vector<std::size_t> input_shape_;
  std::vector<std::uint32_t> argmax_;
  tensor::Tensor output_;
  tensor::Tensor grad_input_;
};

/// Collapses [n, c, h, w] (or any rank >= 2) into [n, c*h*w].
class Flatten final : public Layer {
 public:
  const tensor::Tensor& forward(const tensor::Tensor& input) override;
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> input_shape_;
  tensor::Tensor output_;
  tensor::Tensor grad_input_;
};

}  // namespace mach::nn
