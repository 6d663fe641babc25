// In-memory labelled dataset plus batch gathering.
//
// A Dataset owns the full example tensor (images in NCHW or flat feature
// rows) and integer class labels. Devices hold index lists into a shared
// Dataset, so partitioning never copies example storage.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mach::data {

/// A gathered minibatch: examples stacked along dim 0 plus labels.
struct Batch {
  tensor::Tensor features;
  std::vector<int> labels;

  std::size_t size() const noexcept { return labels.size(); }
};

class Dataset {
 public:
  Dataset() = default;
  /// `features` dim 0 must equal labels.size(); labels in [0, num_classes).
  Dataset(tensor::Tensor features, std::vector<int> labels, std::size_t num_classes);

  std::size_t size() const noexcept { return labels_.size(); }
  std::size_t num_classes() const noexcept { return num_classes_; }
  /// Per-example shape (the dataset shape minus the leading dim).
  std::vector<std::size_t> example_shape() const;
  /// Scalars per example.
  std::size_t example_numel() const noexcept;

  const tensor::Tensor& features() const noexcept { return features_; }
  std::span<const int> labels() const noexcept { return labels_; }
  int label(std::size_t i) const { return labels_.at(i); }

  /// Stacks the referenced examples into a contiguous batch.
  Batch gather(std::span<const std::size_t> indices) const;
  /// The same into `out`, reusing its storage: nothing is allocated once
  /// `out` has held a batch of this size.
  void gather(std::span<const std::size_t> indices, Batch& out) const;

  /// Uniformly samples `batch_size` of the given indices with replacement —
  /// the random local-data draw xi in Eq. (4).
  Batch sample_batch(std::span<const std::size_t> indices, std::size_t batch_size,
                     common::Rng& rng) const;
  /// The same into `out` (storage reused as by gather), with the same RNG
  /// draws in the same order.
  void sample_batch(std::span<const std::size_t> indices, std::size_t batch_size,
                    common::Rng& rng, Batch& out) const;

  /// Histogram of labels restricted to `indices` (size == num_classes()).
  std::vector<std::size_t> class_histogram(std::span<const std::size_t> indices) const;

 private:
  /// Shapes `out` for `count` examples (features reallocated only when
  /// the shape changes).
  void shape_batch(std::size_t count, Batch& out) const;
  /// Copies example `idx` into row `row` of `out`.
  void copy_example(std::size_t idx, std::size_t row, Batch& out) const;

  tensor::Tensor features_;
  std::vector<int> labels_;
  std::size_t num_classes_ = 0;
};

}  // namespace mach::data
