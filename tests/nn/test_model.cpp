#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/model.h"
#include "nn/sgd.h"
#include "tensor/ops.h"

namespace mach::nn {
namespace {

Sequential small_mlp() {
  Sequential m;
  m.add(std::make_unique<Dense>(4, 8))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(8, 2));
  return m;
}

TEST(Sequential, NumParameters) {
  Sequential m = small_mlp();
  // 4*8 + 8 + 8*2 + 2 = 58
  EXPECT_EQ(m.num_parameters(), 58u);
}

TEST(Sequential, GetSetParametersRoundTrip) {
  Sequential m = small_mlp();
  common::Rng rng(1);
  m.init_params(rng);
  const auto original = m.get_parameters();
  ASSERT_EQ(original.size(), 58u);

  std::vector<float> modified(original.size());
  for (std::size_t i = 0; i < modified.size(); ++i) {
    modified[i] = static_cast<float>(i) * 0.1f;
  }
  m.set_parameters(modified);
  EXPECT_EQ(m.get_parameters(), modified);
  m.set_parameters(original);
  EXPECT_EQ(m.get_parameters(), original);
}

TEST(Sequential, SetParametersValidatesLength) {
  Sequential m = small_mlp();
  std::vector<float> too_short(10, 0.0f);
  EXPECT_THROW(m.set_parameters(too_short), std::invalid_argument);
  std::vector<float> too_long(100, 0.0f);
  EXPECT_THROW(m.set_parameters(too_long), std::invalid_argument);
}

TEST(Sequential, ForwardOnEmptyModelThrows) {
  Sequential m;
  tensor::Tensor x({1, 4});
  EXPECT_THROW(m.forward(x), std::logic_error);
}

TEST(Sequential, EvaluateDoesNotChangeParameters) {
  Sequential m = small_mlp();
  common::Rng rng(2);
  m.init_params(rng);
  const auto before = m.get_parameters();
  tensor::Tensor x({3, 4});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 0};
  m.evaluate(x, labels);
  EXPECT_EQ(m.get_parameters(), before);
}

TEST(Sequential, StepStatsConsistent) {
  Sequential m = small_mlp();
  common::Rng rng(3);
  m.init_params(rng);
  tensor::Tensor x({5, 4});
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> labels = {0, 1, 0, 1, 1};
  EXPECT_GT(m.forward_backward(x, labels), 0.0);
  EXPECT_GT(m.grad_squared_norm(), 0.0);

  // grad_squared_norm must equal the norm of the flattened gradient vector.
  double manual = 0.0;
  for (float g : m.get_gradients()) manual += static_cast<double>(g) * g;
  EXPECT_NEAR(m.grad_squared_norm(), manual, 1e-9);
}

TEST(Sgd, SingleStepMatchesManualUpdate) {
  Sequential m;
  m.add(std::make_unique<Dense>(2, 1));
  auto params = m.params();
  params[0].value->flat()[0] = 1.0f;
  params[0].value->flat()[1] = 2.0f;
  params[1].value->flat()[0] = 0.5f;
  params[0].grad->flat()[0] = 0.1f;
  params[0].grad->flat()[1] = -0.2f;
  params[1].grad->flat()[0] = 0.3f;

  Sgd sgd({.learning_rate = 0.5});
  sgd.step(m);
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], 1.0f - 0.5f * 0.1f);
  EXPECT_FLOAT_EQ(params[0].value->flat()[1], 2.0f + 0.5f * 0.2f);
  EXPECT_FLOAT_EQ(params[1].value->flat()[0], 0.5f - 0.5f * 0.3f);
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Sequential m;
  m.add(std::make_unique<Dense>(1, 1));
  auto params = m.params();
  params[0].value->flat()[0] = 2.0f;
  params[0].grad->flat()[0] = 0.0f;
  params[1].value->flat()[0] = 0.0f;
  params[1].grad->flat()[0] = 0.0f;
  Sgd sgd({.learning_rate = 0.1, .momentum = 0.0, .weight_decay = 0.5});
  sgd.step(m);
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], 2.0f - 0.1f * 0.5f * 2.0f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Sequential m;
  m.add(std::make_unique<Dense>(1, 1));
  auto params = m.params();
  params[0].value->flat()[0] = 0.0f;
  params[1].value->flat()[0] = 0.0f;
  params[0].grad->flat()[0] = 1.0f;
  params[1].grad->flat()[0] = 0.0f;
  Sgd sgd({.learning_rate = 1.0, .momentum = 0.5});
  sgd.step(m);  // v=1, w=-1
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], -1.0f);
  sgd.step(m);  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], -2.5f);
  sgd.reset();
  sgd.step(m);  // v resets to 1 -> w=-3.5
  EXPECT_FLOAT_EQ(params[0].value->flat()[0], -3.5f);
}

TEST(Training, LossDecreasesOnSeparableData) {
  // Two Gaussian blobs in 4-D, labels 0/1: a few SGD epochs must cut loss.
  common::Rng rng(7);
  Sequential m = small_mlp();
  m.init_params(rng);
  const std::size_t n = 64;
  tensor::Tensor x({n, 4});
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    const double center = labels[i] == 0 ? -1.5 : 1.5;
    for (std::size_t j = 0; j < 4; ++j) {
      x.at2(i, j) = static_cast<float>(rng.normal(center, 0.5));
    }
  }
  Sgd sgd({.learning_rate = 0.1});
  const double initial_loss = m.evaluate(x, labels).loss;
  for (int epoch = 0; epoch < 50; ++epoch) {
    m.forward_backward(x, labels);
    sgd.step(m);
  }
  const StepStats final = m.evaluate(x, labels);
  EXPECT_LT(final.loss, initial_loss * 0.5);
  EXPECT_GT(static_cast<double>(final.correct) / n, 0.95);
}

std::vector<std::uint32_t> float_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

tensor::Tensor random_input(std::vector<std::size_t> shape, common::Rng& rng) {
  tensor::Tensor x(std::move(shape));
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
  return x;
}

TEST(ForwardBackward, MatchesEveryLayersBackwardBitwise) {
  // forward_backward skips the first parameterised layer's input gradient
  // and the backward of the parameter-free layers before it. Its loss and
  // gradients must be bit for bit those of a loop that runs every layer's
  // backward(), on the paper models and the MLP, over two SGD steps (the
  // second runs on warm scratch).
  struct ModelCase {
    std::string name;
    std::function<Sequential()> make;
    std::vector<std::size_t> input;
  };
  const std::vector<ModelCase> cases = {
      {"cnn2", [] { return make_cnn2(1, 12, 12, 10); }, {16, 1, 12, 12}},
      {"cnn3", [] { return make_cnn3(3, 16, 16, 10); }, {16, 3, 16, 16}},
      {"mlp", [] { return make_mlp(20, 12, 10); }, {16, 20}},
  };
  for (const ModelCase& c : cases) {
    common::Rng rng(31);
    Sequential fast = c.make(), full = c.make();
    fast.init_params(rng);
    full.set_parameters(fast.get_parameters());
    Sgd sgd_fast({.learning_rate = 0.05}), sgd_full({.learning_rate = 0.05});
    for (int step = 0; step < 2; ++step) {
      const tensor::Tensor x = random_input(c.input, rng);
      std::vector<int> labels(c.input[0]);
      for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
      const double fast_loss = fast.forward_backward(x, labels);

      full.set_training(true);
      const tensor::Tensor& logits = full.forward(x);
      tensor::Tensor probs(logits.shape()), grad(logits.shape());
      tensor::softmax(logits, probs);
      const double loss = tensor::cross_entropy_loss(probs, labels);
      tensor::softmax_cross_entropy_backward(probs, labels, grad);
      const tensor::Tensor* g = &grad;
      for (std::size_t i = full.num_layers(); i-- > 0;) {
        g = &full.layer(i).backward(*g);
      }
      EXPECT_EQ(std::memcmp(&fast_loss, &loss, sizeof loss), 0) << c.name;
      ASSERT_EQ(float_bits(fast.get_gradients()),
                float_bits(full.get_gradients()))
          << c.name << " step " << step;
      sgd_fast.step(fast);
      sgd_full.step(full);
    }
  }
}

/// Forwards the layer interface as it was before backward_params existed
/// (like the end-to-end benchmark's timing wrapper): the hook is not
/// overridden, so its default runs backward(). Counts backward() calls.
class Forwarding : public Layer {
 public:
  explicit Forwarding(std::unique_ptr<Layer> inner) : inner_(std::move(inner)) {}
  const tensor::Tensor& forward(const tensor::Tensor& x) override {
    return inner_->forward(x);
  }
  const tensor::Tensor& backward(const tensor::Tensor& g) override {
    ++backward_calls;
    return inner_->backward(g);
  }
  std::vector<ParamRef> params() override { return inner_->params(); }
  void init_params(common::Rng& rng) override { inner_->init_params(rng); }
  void set_training(bool training) override { inner_->set_training(training); }
  const tensor::ScratchArena* scratch_arena() const override {
    return inner_->scratch_arena();
  }
  std::string name() const override { return inner_->name(); }

  int backward_calls = 0;

 protected:
  std::unique_ptr<Layer> inner_;
};

/// Also forwards (and counts) the hook.
class Counting final : public Forwarding {
 public:
  using Forwarding::Forwarding;
  void backward_params(const tensor::Tensor& g) override {
    ++param_calls;
    inner_->backward_params(g);
  }

  int param_calls = 0;
};

template <class Wrapper>
std::vector<Wrapper*> wrap_all(Sequential& model,
                               std::vector<std::unique_ptr<Layer>> layers) {
  std::vector<Wrapper*> wrappers;
  for (auto& layer : layers) {
    auto wrapper = std::make_unique<Wrapper>(std::move(layer));
    wrappers.push_back(wrapper.get());
    model.add(std::move(wrapper));
  }
  return wrappers;
}

std::vector<std::unique_ptr<Layer>> flatten_mlp_layers() {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Flatten>());
  layers.push_back(std::make_unique<Dense>(12, 6));
  layers.push_back(std::make_unique<ReLU>());
  layers.push_back(std::make_unique<Dense>(6, 3));
  return layers;
}

TEST(ForwardBackward, SkipsBackwardBeforeAndInsideTheFirstParameterisedLayer) {
  Sequential model;
  const auto layers = wrap_all<Counting>(model, flatten_mlp_layers());
  common::Rng rng(32);
  model.init_params(rng);
  const tensor::Tensor x = random_input({4, 3, 2, 2}, rng);
  const std::vector<int> labels = {0, 1, 2, 1};
  for (int step = 1; step <= 2; ++step) {
    model.forward_backward(x, labels);
    EXPECT_EQ(layers[0]->backward_calls, 0);  // Flatten: nothing reads it
    EXPECT_EQ(layers[0]->param_calls, 0);
    EXPECT_EQ(layers[1]->backward_calls, 0);  // first Dense: params only
    EXPECT_EQ(layers[1]->param_calls, step);
    EXPECT_EQ(layers[2]->backward_calls, step);
    EXPECT_EQ(layers[3]->backward_calls, step);
    EXPECT_EQ(layers[3]->param_calls, 0);
  }
}

TEST(ForwardBackward, WrapperWithoutTheHookStillGetsExactGradients) {
  // A conv model behind wrappers that do not override backward_params: the
  // first conv runs its full backward (input gradient included) through
  // the hook's default, and every gradient matches the direct model's.
  const auto layers = [] {
    std::vector<std::unique_ptr<Layer>> l;
    l.push_back(std::make_unique<Conv2D>(2, 4, 3, 1));
    l.push_back(std::make_unique<ReLU>());
    l.push_back(std::make_unique<MaxPool2x2>());
    l.push_back(std::make_unique<Flatten>());
    l.push_back(std::make_unique<Dense>(4 * 4 * 4, 5));
    return l;
  };
  Sequential direct, wrapped;
  for (auto& layer : layers()) direct.add(std::move(layer));
  const auto wrappers = wrap_all<Forwarding>(wrapped, layers());
  common::Rng rng(33);
  direct.init_params(rng);
  wrapped.set_parameters(direct.get_parameters());
  const tensor::Tensor x = random_input({6, 2, 8, 8}, rng);
  const std::vector<int> labels = {0, 1, 2, 3, 4, 0};
  const double a = direct.forward_backward(x, labels);
  const double b = wrapped.forward_backward(x, labels);
  EXPECT_EQ(a, b);
  EXPECT_EQ(direct.grad_squared_norm(), wrapped.grad_squared_norm());
  EXPECT_EQ(float_bits(direct.get_gradients()),
            float_bits(wrapped.get_gradients()));
  EXPECT_EQ(wrappers[0]->backward_calls, 1);
}

TEST(Factory, Cnn2RejectsBadDimensions) {
  EXPECT_THROW(make_cnn2(1, 10, 12, 10), std::invalid_argument);
  EXPECT_NO_THROW(make_cnn2(1, 12, 12, 10));
}

TEST(Factory, Cnn3RejectsBadDimensions) {
  EXPECT_THROW(make_cnn3(3, 12, 16, 10), std::invalid_argument);
  EXPECT_NO_THROW(make_cnn3(3, 16, 16, 10));
}

TEST(Factory, MlpShapes) {
  Sequential m = make_mlp(10, 6, 3);
  common::Rng rng(8);
  m.init_params(rng);
  tensor::Tensor x({2, 10});
  EXPECT_EQ(m.forward(x).shape(), (std::vector<std::size_t>{2, 3}));
}

}  // namespace
}  // namespace mach::nn
