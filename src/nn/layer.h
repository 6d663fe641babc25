// Layer abstraction for the from-scratch neural-network substrate.
//
// The simulator trains hundreds of small per-device models, so layers cache
// their activations internally and reuse buffers across steps; a fresh
// forward() invalidates the previous backward() state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace mach::nn {

/// Non-owning handle to one parameter tensor and its gradient accumulator.
struct ParamRef {
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
  std::string name;
};

class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Runs the layer on `input`, returning a reference to the cached output.
  /// The reference stays valid until the next forward() on this layer.
  virtual const tensor::Tensor& forward(const tensor::Tensor& input) = 0;

  /// Backpropagates `grad_output` (shape of the last forward output), filling
  /// parameter gradients and returning a reference to the cached input grad.
  virtual const tensor::Tensor& backward(const tensor::Tensor& grad_output) = 0;

  /// Like backward(), but only the parameter gradients are wanted: the
  /// caller will not read the input gradient. Sequential::forward_backward
  /// calls this on its first parameterised layer, whose input gradient
  /// nothing reads. Contract: afterwards every parameter gradient holds
  /// exactly the bits backward() would have left; the input gradient need
  /// not be computed. The default runs backward(), so a layer or wrapper
  /// that does not override this stays correct.
  virtual void backward_params(const tensor::Tensor& grad_output) {
    backward(grad_output);
  }

  /// Parameter handles; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Randomises parameters (He initialisation for ReLU nets). Stateless
  /// layers ignore it.
  virtual void init_params(common::Rng& /*rng*/) {}

  /// Tells the layer whether the passes that follow are training or
  /// evaluation (Sequential sets it). Every layer here behaves the same in
  /// both modes and ignores it; a wrapper can use it to tell the two apart
  /// (bench/e2e's TimedLayer times them separately).
  virtual void set_training(bool /*training*/) {}

  /// The layer's scratch arena, if it owns one (Conv2D and ConvBlock do).
  /// Exposed so the allocation test can assert the arenas stop growing once
  /// training is warm.
  virtual const tensor::ScratchArena* scratch_arena() const { return nullptr; }

  virtual std::string name() const = 0;

 protected:
  Layer() = default;
};

}  // namespace mach::nn
