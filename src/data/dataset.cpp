#include "data/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace mach::data {

Dataset::Dataset(tensor::Tensor features, std::vector<int> labels,
                 std::size_t num_classes)
    : features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  if (features_.rank() < 2) {
    throw std::invalid_argument("Dataset: features must have rank >= 2");
  }
  if (features_.dim(0) != labels_.size()) {
    throw std::invalid_argument("Dataset: feature/label count mismatch");
  }
  for (int label : labels_) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::invalid_argument("Dataset: label out of range");
    }
  }
}

std::vector<std::size_t> Dataset::example_shape() const {
  const auto& shape = features_.shape();
  return {shape.begin() + 1, shape.end()};
}

std::size_t Dataset::example_numel() const noexcept {
  return size() == 0 ? 0 : features_.numel() / size();
}

void Dataset::shape_batch(std::size_t count, Batch& out) const {
  const std::vector<std::size_t>& shape = features_.shape();
  const tensor::Tensor& features = out.features;
  const bool same = features.rank() == shape.size() && features.dim(0) == count &&
                    std::equal(shape.begin() + 1, shape.end(),
                               features.shape().begin() + 1);
  if (!same) {
    std::vector<std::size_t> batch_shape = shape;
    batch_shape[0] = count;
    out.features = tensor::Tensor(std::move(batch_shape));
  }
  out.labels.resize(count);
}

void Dataset::copy_example(std::size_t idx, std::size_t row, Batch& out) const {
  if (idx >= size()) throw std::out_of_range("Dataset::gather: index out of range");
  const std::size_t stride = example_numel();
  const float* src = features_.data() + idx * stride;
  std::copy(src, src + stride, out.features.data() + row * stride);
  out.labels[row] = labels_[idx];
}

Batch Dataset::gather(std::span<const std::size_t> indices) const {
  Batch batch;
  gather(indices, batch);
  return batch;
}

void Dataset::gather(std::span<const std::size_t> indices, Batch& out) const {
  shape_batch(indices.size(), out);
  for (std::size_t i = 0; i < indices.size(); ++i) copy_example(indices[i], i, out);
}

Batch Dataset::sample_batch(std::span<const std::size_t> indices,
                            std::size_t batch_size, common::Rng& rng) const {
  Batch batch;
  sample_batch(indices, batch_size, rng, batch);
  return batch;
}

void Dataset::sample_batch(std::span<const std::size_t> indices,
                           std::size_t batch_size, common::Rng& rng,
                           Batch& out) const {
  if (indices.empty()) throw std::invalid_argument("sample_batch: empty index set");
  shape_batch(batch_size, out);
  for (std::size_t i = 0; i < batch_size; ++i) {
    copy_example(indices[rng.uniform_index(indices.size())], i, out);
  }
}

std::vector<std::size_t> Dataset::class_histogram(
    std::span<const std::size_t> indices) const {
  std::vector<std::size_t> histogram(num_classes_, 0);
  for (std::size_t idx : indices) {
    ++histogram[static_cast<std::size_t>(labels_.at(idx))];
  }
  return histogram;
}

}  // namespace mach::data
