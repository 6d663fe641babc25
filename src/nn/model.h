// Sequential model with a softmax cross-entropy head, plus flat-parameter
// accessors used by the federated aggregation code.
//
// The gradient norm ||g||^2 the samplers consume is not part of a training
// step: grad_squared_norm() evaluates it for the gradients a step left, and
// nn::GradNormBatch (nn/norm_batch.h) evaluates it for up to eight models'
// gradients at once with the same bits.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace mach::nn {

/// Result of evaluating one minibatch.
struct StepStats {
  double loss = 0.0;
  std::size_t correct = 0;
  std::size_t batch_size = 0;
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) noexcept = default;
  Sequential& operator=(Sequential&&) noexcept = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// He-initialises every parameterised layer.
  void init_params(common::Rng& rng);

  /// Propagates training/eval mode to every layer (Layer::set_training).
  /// forward_backward() switches to training mode, evaluate() to eval mode;
  /// call this only for custom loops using forward() directly.
  void set_training(bool training);

  /// Forward pass; returns the logits (valid until the next forward).
  const tensor::Tensor& forward(const tensor::Tensor& input);

  /// Forward + loss + backward; returns the minibatch's mean loss, and
  /// leaves the gradients in the layers' grad tensors for the optimiser.
  /// Labels are class indices. Only parameter gradients are produced: the
  /// first parameterised layer gets backward_params() and the
  /// parameter-free layers before it get no backward call at all.
  double forward_backward(const tensor::Tensor& input, std::span<const int> labels);

  /// Loss/accuracy evaluation without gradient computation.
  StepStats evaluate(const tensor::Tensor& input, std::span<const int> labels);

  /// Squared L2 norm of the concatenated parameter gradient — the observable
  /// the paper's statistical/MACH samplers consume (Assumption 3's ||g||^2).
  /// Each gradient tensor is one serial kernels::squared_norm chain, and the
  /// per-tensor results are summed in param_refs() order from 0.0; this is
  /// the reference GradNormBatch reproduces bit for bit.
  double grad_squared_norm();

  /// All parameter handles across layers, in layer order.
  std::vector<ParamRef> params();

  /// Cached parameter handles (built once, invalidated by add()). The hot
  /// path — the optimiser steps, gradient norms and parameter copies — uses
  /// this instead of params() so steady-state training allocates nothing.
  const std::vector<ParamRef>& param_refs();

  /// Sum of scratch-arena grow events across layers. Flat once training is
  /// warm; the allocation test asserts this.
  std::size_t scratch_grow_events() const;

  /// Total number of scalar parameters.
  std::size_t num_parameters();

  /// Copies all parameters into one flat vector (layer order).
  std::vector<float> get_parameters();
  /// The same into `flat`, resized to num_parameters() (no allocation once
  /// its capacity suffices).
  void get_parameters(std::vector<float>& flat);
  /// Restores parameters from a flat vector produced by get_parameters().
  void set_parameters(std::span<const float> flat);
  /// Copies all gradients into one flat vector (layer order).
  std::vector<float> get_gradients();

  std::size_t num_layers() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t index) { return *layers_.at(index); }

 private:
  /// Index of the first layer with parameters (num_layers() if none),
  /// cached with the parameter refs.
  std::size_t first_param_layer();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<ParamRef> cached_param_refs_;
  std::size_t first_param_layer_ = 0;
  bool param_refs_valid_ = false;
  tensor::Tensor probs_;
  tensor::Tensor grad_logits_;
};

}  // namespace mach::nn
