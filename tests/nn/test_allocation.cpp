// Steady-state allocation test: once training is warm, a full MNIST-CNN or
// CIFAR-CNN training step (forward + backward + SGD update) must perform
// ZERO heap allocations. The conv scratch lives in per-layer arenas, GEMM
// pack buffers are thread-local and grown once, layer activations are cached
// tensors, and the optimiser walks the model's cached parameter refs — so
// after a few warm-up steps nothing on the hot path should touch the
// allocator.
//
// Mechanism: this TU replaces the global allocation functions with counting
// wrappers (affecting the whole test binary, which is fine — we only compare
// the counter across a region that runs nothing but the hot path).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/norm_batch.h"
#include "nn/sgd.h"
#include "tensor/tensor.h"

// Shared with the other suites in this binary (e.g. the span-guard
// allocation test): external linkage, declared extern where used.
std::atomic<std::uint64_t> g_alloc_count{0};

namespace {

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mach::nn {
namespace {

/// The paper CNNs these tests warm up: MNIST-CNN at the allocation test's
/// original 28x28 and batch 32, and CIFAR-CNN at the benchmark's 3x16x16
/// and training batch 16.
struct CnnCase {
  const char* name;
  Sequential (*make)();
  std::vector<std::size_t> input;
};

std::vector<CnnCase> cnn_cases(std::size_t mnist_batch) {
  return {{"mnist cnn2", [] { return make_cnn2(1, 28, 28, 10); },
           {mnist_batch, 1, 28, 28}},
          {"cifar cnn3", [] { return make_cnn3(3, 16, 16, 10); },
           {16, 3, 16, 16}}};
}

TEST(SteadyStateAllocation, MnistCnnTrainingStepAllocatesNothing) {
  for (const CnnCase& c : cnn_cases(32)) {
    common::Rng rng(42);
    Sequential model = c.make();
    model.init_params(rng);
    Sgd sgd({.learning_rate = 0.01, .momentum = 0.9, .weight_decay = 1e-4});

    const std::size_t batch = c.input[0];
    tensor::Tensor input(c.input);
    for (auto& v : input.flat()) v = static_cast<float>(rng.normal());
    std::vector<int> labels(batch);
    for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
    const std::span<const int> label_span(labels);

    // Warm-up: grows arenas, pack buffers, cached activations, velocity
    // buffers and the cached param refs.
    for (int step = 0; step < 3; ++step) {
      model.forward_backward(input, label_span);
      sgd.step(model);
    }

    const std::size_t grow_events_before = model.scratch_grow_events();
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    for (int step = 0; step < 5; ++step) {
      const double loss = model.forward_backward(input, label_span);
      sgd.step(model);
      ASSERT_GT(loss, 0.0);
    }
    const std::uint64_t allocs_after =
        g_alloc_count.load(std::memory_order_relaxed);

    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << "warm " << c.name << " training steps must not allocate";
    EXPECT_EQ(model.scratch_grow_events(), grow_events_before)
        << c.name << " scratch arenas must not grow once warm";
  }
}

TEST(SteadyStateAllocation, MlpDeviceStepAllocatesNothing) {
  // The simulator's per-device step on the fleet MLP (batch 4): sample a
  // minibatch into a reused Batch, forward/backward, stage the gradient
  // norm, a fresh SGD optimiser's step, copy the parameters into a reused
  // buffer — and flush the norm batch after every eight devices.
  common::Rng rng(5);
  Sequential model;
  model.add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(64, 32))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(32, 10));
  model.init_params(rng);
  tensor::Tensor features({64, 1, 8, 8});
  for (auto& v : features.flat()) v = static_cast<float>(rng.normal());
  std::vector<int> labels(64);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
  const data::Dataset dataset(std::move(features), std::move(labels), 10);
  std::vector<std::size_t> shard(64);
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;

  data::Batch batch;
  GradNormBatch norms;
  std::vector<float> params;
  std::vector<double> results(GradNormBatch::kLanes);
  const auto device_steps = [&] {
    for (double& result : results) {
      Sgd sgd({.learning_rate = 0.05, .momentum = 0.0, .weight_decay = 0.0});
      dataset.sample_batch(shard, 4, rng, batch);
      model.forward_backward(batch.features, batch.labels);
      norms.add(model, &result);
      sgd.step(model);
      model.get_parameters(params);
    }
    norms.flush();
  };

  device_steps();  // warm-up: batch, activations, staging, param buffer
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 3; ++round) device_steps();
  const std::uint64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "warm MLP device steps must not allocate";
  EXPECT_EQ(results.back(), model.grad_squared_norm());
}

TEST(SteadyStateAllocation, EvaluationIsAllocationFreeWhenWarm) {
  for (const CnnCase& c : cnn_cases(16)) {
    common::Rng rng(7);
    Sequential model = c.make();
    model.init_params(rng);

    const std::size_t batch = c.input[0];
    tensor::Tensor input(c.input);
    for (auto& v : input.flat()) v = static_cast<float>(rng.normal());
    std::vector<int> labels(batch);
    for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
    const std::span<const int> label_span(labels);

    for (int i = 0; i < 2; ++i) model.evaluate(input, label_span);

    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) model.evaluate(input, label_span);
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << c.name;
  }
}

}  // namespace
}  // namespace mach::nn
