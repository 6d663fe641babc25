// Numerical gradient verification of the full backprop pipeline: for every
// parameter tensor of a small model, the analytic gradient from
// forward_backward must match a central finite difference of the loss.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/model.h"

namespace mach::nn {
namespace {

struct GradCheckCase {
  std::string name;
  std::function<Sequential()> build;
  std::vector<std::size_t> input_shape;
};

// Print a case by name. The default printer dumps the object's raw bytes,
// which include heap addresses, so the listed test names would change from
// run to run.
void PrintTo(const GradCheckCase& c, std::ostream* os) { *os << c.name; }

class GradCheck : public ::testing::TestWithParam<GradCheckCase> {};

double loss_of(Sequential& model, const tensor::Tensor& x,
               const std::vector<int>& labels) {
  return model.evaluate(x, labels).loss;
}

TEST_P(GradCheck, AnalyticMatchesNumeric) {
  const auto& param = GetParam();
  Sequential model = param.build();
  common::Rng rng(99);
  model.init_params(rng);

  tensor::Tensor x(param.input_shape);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<int> labels(param.input_shape[0]);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_index(3));

  model.forward_backward(x, labels);
  const std::vector<float> analytic = model.get_gradients();

  // Central differences over a subsample of parameters (float32 precision
  // limits the step to ~1e-2; tolerances are therefore loose but effective
  // at catching sign/indexing errors).
  auto params = model.params();
  const float eps = 1e-2f;
  std::size_t offset = 0;
  std::size_t checked = 0;
  for (auto& ref : params) {
    auto values = ref.value->flat();
    const std::size_t stride = std::max<std::size_t>(values.size() / 5, 1);
    for (std::size_t j = 0; j < values.size(); j += stride) {
      const float original = values[j];
      values[j] = original + eps;
      const double plus = loss_of(model, x, labels);
      values[j] = original - eps;
      const double minus = loss_of(model, x, labels);
      values[j] = original;
      const double numeric = (plus - minus) / (2.0 * eps);
      const double a = analytic[offset + j];
      const double scale = std::max({std::abs(a), std::abs(numeric), 0.05});
      EXPECT_LT(std::abs(a - numeric) / scale, 0.15)
          << param.name << " param " << ref.name << " index " << j
          << " analytic=" << a << " numeric=" << numeric;
      ++checked;
    }
    offset += values.size();
  }
  EXPECT_GT(checked, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Models, GradCheck,
    ::testing::Values(
        GradCheckCase{"dense",
                      [] {
                        Sequential m;
                        m.add(std::make_unique<Dense>(6, 3));
                        return m;
                      },
                      {4, 6}},
        GradCheckCase{"mlp",
                      [] {
                        Sequential m;
                        m.add(std::make_unique<Dense>(6, 5))
                            .add(std::make_unique<ReLU>())
                            .add(std::make_unique<Dense>(5, 3));
                        return m;
                      },
                      {4, 6}},
        GradCheckCase{"conv_net",
                      [] {
                        Sequential m;
                        m.add(std::make_unique<Conv2D>(1, 2, 3, 1))
                            .add(std::make_unique<ReLU>())
                            .add(std::make_unique<MaxPool2x2>())
                            .add(std::make_unique<Flatten>())
                            .add(std::make_unique<Dense>(2 * 2 * 2, 3));
                        return m;
                      },
                      {2, 1, 4, 4}},
        GradCheckCase{"flatten_mlp",
                      [] {
                        Sequential m;
                        m.add(std::make_unique<Flatten>())
                            .add(std::make_unique<Dense>(8, 4))
                            .add(std::make_unique<ReLU>())
                            .add(std::make_unique<Dense>(4, 3));
                        return m;
                      },
                      {3, 2, 2, 2}}),
    [](const ::testing::TestParamInfo<GradCheckCase>& info) {
      return info.param.name;
    });

TEST(GradCheckPaperModels, Cnn2BackpropRuns) {
  Sequential model = make_cnn2(1, 12, 12, 10);
  common::Rng rng(5);
  model.init_params(rng);
  tensor::Tensor x({2, 1, 12, 12});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {3, 7};
  EXPECT_GT(model.forward_backward(x, labels), 0.0);
  EXPECT_GT(model.grad_squared_norm(), 0.0);
  EXPECT_TRUE(std::isfinite(model.grad_squared_norm()));
}

TEST(GradCheckPaperModels, Cnn3BackpropRuns) {
  Sequential model = make_cnn3(3, 16, 16, 10);
  common::Rng rng(6);
  model.init_params(rng);
  tensor::Tensor x({2, 3, 16, 16});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 9};
  EXPECT_GT(model.forward_backward(x, labels), 0.0);
  EXPECT_TRUE(std::isfinite(model.grad_squared_norm()));
}

}  // namespace
}  // namespace mach::nn
