// Dropout and checkpoint serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/model.h"
#include "nn/serialize.h"

namespace mach::nn {
namespace {

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(Dropout(-0.1), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0), std::invalid_argument);
  EXPECT_NO_THROW(Dropout(0.0));
  EXPECT_NO_THROW(Dropout(0.99));
}

TEST(Dropout, EvalModeIsPassThrough) {
  Dropout layer(0.5);
  layer.set_training(false);
  tensor::Tensor x({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto& y = layer.forward(x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingZeroesApproximatelyRateFraction) {
  Dropout layer(0.4, 7);
  layer.set_training(true);
  tensor::Tensor x({1, 10000});
  x.fill(1.0f);
  const auto& y = layer.forward(x);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < x.numel(); ++i) zeros += y[i] == 0.0f ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.4, 0.03);
  // Inverted scaling keeps the expectation: survivors are 1/(1-0.4).
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (y[i] != 0.0f) {
      EXPECT_NEAR(y[i], 1.0f / 0.6f, 1e-5);
    }
  }
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout layer(0.5, 9);
  tensor::Tensor x({1, 100});
  x.fill(2.0f);
  const auto& y = layer.forward(x);
  tensor::Tensor g({1, 100});
  g.fill(1.0f);
  const auto& gin = layer.backward(g);
  for (std::size_t i = 0; i < 100; ++i) {
    if (y[i] == 0.0f) {
      EXPECT_FLOAT_EQ(gin[i], 0.0f);
    } else {
      EXPECT_FLOAT_EQ(gin[i], 2.0f);  // 1/(1-0.5)
    }
  }
}

TEST(Dropout, SequentialTogglesMode) {
  Sequential model;
  model.add(std::make_unique<Dense>(4, 4))
      .add(std::make_unique<Dropout>(0.9, 11))
      .add(std::make_unique<Dense>(4, 2));
  common::Rng rng(1);
  model.init_params(rng);
  tensor::Tensor x({8, 4});
  for (auto& v : x.flat()) v = 1.0f;
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  // evaluate() must be deterministic (dropout off).
  const double loss_a = model.evaluate(x, labels).loss;
  const double loss_b = model.evaluate(x, labels).loss;
  EXPECT_DOUBLE_EQ(loss_a, loss_b);
}

TEST(Serialize, RoundTrip) {
  Sequential model;
  model.add(std::make_unique<Dense>(3, 4));
  common::Rng rng(5);
  model.init_params(rng);
  const auto original = model.get_parameters();
  const std::string path = testing::TempDir() + "weights.mach";
  ASSERT_NO_THROW(save_parameters(model, path));

  // Perturb, reload, verify restoration.
  std::vector<float> zeros(original.size(), 0.0f);
  model.set_parameters(zeros);
  load_parameters(model, path);
  EXPECT_EQ(model.get_parameters(), original);
  std::remove(path.c_str());
}

TEST(Serialize, CountMismatchThrows) {
  Sequential small;
  small.add(std::make_unique<Dense>(2, 2));
  Sequential big;
  big.add(std::make_unique<Dense>(4, 4));
  common::Rng rng(6);
  small.init_params(rng);
  const std::string path = testing::TempDir() + "weights_small.mach";
  ASSERT_NO_THROW(save_parameters(small, path));
  EXPECT_THROW(load_parameters(big, path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  Sequential model;
  model.add(std::make_unique<Dense>(2, 2));
  EXPECT_THROW(load_parameters(model, "/no/such/weights.mach"), std::runtime_error);
}

TEST(Serialize, CorruptMagicThrows) {
  const std::string path = testing::TempDir() + "corrupt.mach";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  Sequential model;
  model.add(std::make_unique<Dense>(2, 2));
  EXPECT_THROW(load_parameters(model, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mach::nn
