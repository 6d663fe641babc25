#include "nn/model.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.h"

namespace mach::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  param_refs_valid_ = false;
  return *this;
}

void Sequential::init_params(common::Rng& rng) {
  for (auto& layer : layers_) layer->init_params(rng);
}

void Sequential::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

const tensor::Tensor& Sequential::forward(const tensor::Tensor& input) {
  if (layers_.empty()) throw std::logic_error("Sequential::forward: empty model");
  const tensor::Tensor* current = &input;
  for (auto& layer : layers_) current = &layer->forward(*current);
  return *current;
}

double Sequential::forward_backward(const tensor::Tensor& input,
                                    std::span<const int> labels) {
  set_training(true);
  const tensor::Tensor& logits = forward(input);
  if (!probs_.same_shape(logits)) probs_ = tensor::Tensor(logits.shape());
  tensor::softmax(logits, probs_);
  const double loss = tensor::cross_entropy_loss(probs_, labels);

  if (!grad_logits_.same_shape(logits)) grad_logits_ = tensor::Tensor(logits.shape());
  tensor::softmax_cross_entropy_backward(probs_, labels, grad_logits_);

  // Layers before the first parameterised one need no gradient, and that
  // layer's own input gradient is never read.
  const std::size_t first = first_param_layer();
  const tensor::Tensor* grad = &grad_logits_;
  for (std::size_t i = layers_.size(); i-- > first + 1;) {
    grad = &layers_[i]->backward(*grad);
  }
  if (first < layers_.size()) layers_[first]->backward_params(*grad);
  return loss;
}

double Sequential::grad_squared_norm() {
  double total = 0.0;
  for (const ParamRef& ref : param_refs()) total += ref.grad->squared_norm();
  return total;
}

StepStats Sequential::evaluate(const tensor::Tensor& input, std::span<const int> labels) {
  set_training(false);
  const tensor::Tensor& logits = forward(input);
  if (!probs_.same_shape(logits)) probs_ = tensor::Tensor(logits.shape());
  tensor::softmax(logits, probs_);
  StepStats stats;
  stats.batch_size = labels.size();
  stats.loss = tensor::cross_entropy_loss(probs_, labels);
  stats.correct = tensor::count_correct(logits, labels);
  return stats;
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> refs;
  for (auto& layer : layers_) {
    for (ParamRef ref : layer->params()) refs.push_back(ref);
  }
  return refs;
}

const std::vector<ParamRef>& Sequential::param_refs() {
  if (!param_refs_valid_) {
    cached_param_refs_ = params();
    first_param_layer_ = 0;
    while (first_param_layer_ < layers_.size() &&
           layers_[first_param_layer_]->params().empty()) {
      ++first_param_layer_;
    }
    param_refs_valid_ = true;
  }
  return cached_param_refs_;
}

std::size_t Sequential::first_param_layer() {
  param_refs();
  return first_param_layer_;
}

std::size_t Sequential::scratch_grow_events() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) {
    if (const tensor::ScratchArena* arena = layer->scratch_arena()) {
      total += arena->stats().grow_events;
    }
  }
  return total;
}

std::size_t Sequential::num_parameters() {
  std::size_t total = 0;
  for (const ParamRef& ref : param_refs()) total += ref.value->numel();
  return total;
}

std::vector<float> Sequential::get_parameters() {
  std::vector<float> flat;
  get_parameters(flat);
  return flat;
}

void Sequential::get_parameters(std::vector<float>& flat) {
  flat.resize(num_parameters());
  float* out = flat.data();
  for (const ParamRef& ref : param_refs()) {
    out = std::copy(ref.value->flat().begin(), ref.value->flat().end(), out);
  }
}

void Sequential::set_parameters(std::span<const float> flat) {
  std::size_t offset = 0;
  for (const ParamRef& ref : param_refs()) {
    const std::size_t count = ref.value->numel();
    if (offset + count > flat.size()) {
      throw std::invalid_argument("Sequential::set_parameters: vector too short");
    }
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + count),
              ref.value->flat().begin());
    offset += count;
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("Sequential::set_parameters: vector too long");
  }
}

std::vector<float> Sequential::get_gradients() {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (const ParamRef& ref : param_refs()) {
    flat.insert(flat.end(), ref.grad->flat().begin(), ref.grad->flat().end());
  }
  return flat;
}

}  // namespace mach::nn
