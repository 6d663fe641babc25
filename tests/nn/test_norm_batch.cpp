// GradNormBatch against Sequential::grad_squared_norm(): every batched norm
// must be the reference's bits, for full, partial and overflowing batches,
// on the fleet MLP and both paper CNNs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/norm_batch.h"
#include "nn/sgd.h"

namespace mach::nn {
namespace {

struct ModelCase {
  std::string name;
  std::function<Sequential()> build;
  std::vector<std::size_t> input_shape;  // one minibatch of 4
};

std::vector<ModelCase> model_cases() {
  return {
      {"fleet_mlp",
       [] {
         Sequential m;
         m.add(std::make_unique<Flatten>())
             .add(std::make_unique<Dense>(64, 32))
             .add(std::make_unique<ReLU>())
             .add(std::make_unique<Dense>(32, 10));
         return m;
       },
       {4, 1, 8, 8}},
      {"cnn2", [] { return make_cnn2(1, 12, 12, 10); }, {4, 1, 12, 12}},
      {"cnn3", [] { return make_cnn3(3, 16, 16, 10); }, {4, 3, 16, 16}},
  };
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

TEST(GradNormBatch, MatchesGradSquaredNormBitwise) {
  for (const ModelCase& c : model_cases()) {
    // 1..8 fill one flush (partial and full); 9, 16 and 19 make add()
    // flush a full batch before staging more.
    for (const std::size_t count : {1u, 3u, 7u, 8u, 9u, 16u, 19u}) {
      SCOPED_TRACE(c.name + " count=" + std::to_string(count));
      common::Rng rng(count);
      Sequential model = c.build();
      model.init_params(rng);
      Sgd sgd({.learning_rate = 0.05, .momentum = 0.0, .weight_decay = 0.0});
      tensor::Tensor x(c.input_shape);
      std::vector<int> labels(c.input_shape[0]);
      GradNormBatch batch;
      std::vector<double> got(count, -1.0), want(count);
      for (std::size_t i = 0; i < count; ++i) {
        for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
        for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
        model.forward_backward(x, std::span<const int>(labels));
        want[i] = model.grad_squared_norm();
        batch.add(model, &got[i]);
        sgd.step(model);  // the next pass sees other parameters
      }
      EXPECT_EQ(batch.pending(), (count - 1) % GradNormBatch::kLanes + 1);
      batch.flush();
      EXPECT_EQ(batch.pending(), 0u);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(bits(got[i]), bits(want[i])) << "model " << i;
      }
    }
  }
}

TEST(GradNormBatch, MixesModelsOfOneShape) {
  // Lanes are independent: models with other parameters (the simulator's
  // worker replicas) may share a batch, and flushing an empty batch is a
  // no-op.
  common::Rng rng(3);
  const ModelCase c = model_cases()[0];
  Sequential a = c.build(), b = c.build();
  a.init_params(rng);
  b.init_params(rng);
  tensor::Tensor x(c.input_shape);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {1, 2, 3, 4};
  GradNormBatch batch;
  batch.flush();
  double got_a = 0.0, got_b = 0.0;
  a.forward_backward(x, labels);
  batch.add(a, &got_a);
  b.forward_backward(x, labels);
  batch.add(b, &got_b);
  batch.flush();
  EXPECT_EQ(bits(got_a), bits(a.grad_squared_norm()));
  EXPECT_EQ(bits(got_b), bits(b.grad_squared_norm()));
}

TEST(GradNormBatch, RejectsModelsOfAnotherShape) {
  const auto cases = model_cases();
  Sequential mlp = cases[0].build();
  Sequential cnn = cases[1].build();
  GradNormBatch batch;
  double result = 0.0;
  batch.add(mlp, &result);
  EXPECT_THROW(batch.add(cnn, &result), std::invalid_argument);
  EXPECT_EQ(batch.pending(), 1u);
}

}  // namespace
}  // namespace mach::nn
