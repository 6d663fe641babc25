// Layer modes and checkpoint serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "nn/dense.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "nn/serialize.h"

namespace mach::nn {
namespace {

/// A pass-through layer that records the last mode Sequential set.
class ModeRecorder final : public Layer {
 public:
  explicit ModeRecorder(std::vector<bool>* modes) : modes_(modes) {}
  const tensor::Tensor& forward(const tensor::Tensor& input) override {
    output_ = input;
    return output_;
  }
  const tensor::Tensor& backward(const tensor::Tensor& grad_output) override {
    grad_ = grad_output;
    return grad_;
  }
  void set_training(bool training) override { modes_->push_back(training); }
  std::string name() const override { return "ModeRecorder"; }

 private:
  std::vector<bool>* modes_;
  tensor::Tensor output_, grad_;
};

TEST(Dropout, SequentialTogglesMode) {
  // evaluate() puts every layer in eval mode and forward_backward() in
  // training mode; wrappers such as bench/e2e's TimedLayer rely on it.
  std::vector<bool> modes;
  Sequential model;
  model.add(std::make_unique<Dense>(4, 4))
      .add(std::make_unique<ModeRecorder>(&modes))
      .add(std::make_unique<Dense>(4, 2));
  common::Rng rng(1);
  model.init_params(rng);
  tensor::Tensor x({8, 4});
  for (auto& v : x.flat()) v = 1.0f;
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1, 0, 1};
  model.evaluate(x, labels);
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_FALSE(modes.back());
  model.forward_backward(x, labels);
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_TRUE(modes.back());
  model.evaluate(x, labels);
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_FALSE(modes.back());
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
