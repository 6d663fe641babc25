// ConvBlock against the Conv2D -> ReLU -> MaxPool2x2 chain it replaces in the
// paper CNNs: same bits forward and backward, same parameters, and a
// forward that never holds more than one group of conv outputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_block.h"
#include "nn/factory.h"

namespace mach::nn {
namespace {

std::vector<std::uint32_t> bits(const tensor::Tensor& t) {
  std::vector<std::uint32_t> out(t.numel());
  std::memcpy(out.data(), t.data(), t.numel() * sizeof(float));
  return out;
}

/// A conv stage of the benchmark models: channels -> out_c over h x h.
struct Stage {
  std::string name;
  std::size_t channels, out_c, h;
};

/// The five conv stages of the benchmark's CIFAR-like (3x16x16) and
/// MNIST-like (1x12x12) models.
const std::vector<Stage>& bench_stages() {
  static const std::vector<Stage> stages = {
      {"cifar_block1", 3, 8, 16}, {"cifar_block2", 8, 16, 8},
      {"cifar_block3", 16, 32, 4}, {"mnist_block1", 1, 8, 12},
      {"mnist_block2", 8, 16, 6},
  };
  return stages;
}

/// Images whose conv outputs hit the selection rule's edge cases. Every
/// fourth image is zero, so its conv output is the bias: whole windows tie,
/// and channels with a non-positive bias give all-non-positive windows.
/// With integer weights (`integer`) the small-integer images tie inside
/// windows at every position; the normal images carry NaN and +-inf pixels,
/// which spread NaN and +-inf conv outputs around them. (No conv output is
/// -0, since every GEMM sum starts from +0; ReluMaxPool in test_ops covers
/// -0 candidates.)
tensor::Tensor edge_case_input(std::size_t batch, const Stage& s,
                               common::Rng& rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  tensor::Tensor x({batch, s.channels, s.h, s.h});
  const std::size_t image = s.channels * s.h * s.h;
  for (std::size_t n = 0; n < batch; ++n) {
    float* px = x.data() + n * image;
    for (std::size_t i = 0; i < image; ++i) {
      switch (n % 4) {
        case 0: px[i] = 0.0f; break;
        case 1: px[i] = static_cast<float>(rng.uniform_index(5)) - 2.0f; break;
        default: px[i] = static_cast<float>(rng.normal()); break;
      }
    }
    if (n % 4 == 2) {
      const float specials[] = {nan, inf, -inf};
      for (const float v : specials) px[rng.uniform_index(image)] = v;
    }
  }
  return x;
}

void set_params(std::vector<ParamRef> refs, bool integer, common::Rng& rng) {
  for (const ParamRef& ref : refs) {
    for (auto& v : ref.value->flat()) {
      v = integer ? static_cast<float>(rng.uniform_index(3)) - 1.0f
                  : static_cast<float>(rng.normal() * 0.5);
    }
  }
}

TEST(ConvBlock, MatchesTheChainBitwiseOnTheBenchmarkShapes) {
  // Pooled output after forward; weight, bias and input gradients after
  // backward; weight and bias gradients after backward_params — at every
  // conv stage of the benchmark models, for a single image, a training
  // minibatch, the last and a full 256-example evaluation chunk, in
  // training and eval mode, with He-like and integer parameters.
  common::Rng rng(2024);
  for (const Stage& s : bench_stages()) {
    for (const bool integer : {false, true}) {
      ConvBlock block(s.channels, s.out_c, 3, 1);
      Conv2D conv(s.channels, s.out_c, 3, 1);
      ReLU relu;
      MaxPool2x2 pool;
      set_params(block.params(), integer, rng);
      const std::vector<ParamRef> block_params = block.params();
      const std::vector<ParamRef> conv_params = conv.params();
      for (std::size_t i = 0; i < conv_params.size(); ++i) {
        *conv_params[i].value = *block_params[i].value;
      }
      for (const std::size_t batch : {1u, 16u, 208u, 256u}) {
        for (const bool training : {true, false}) {
          const std::string where = s.name + (integer ? " integer" : " normal") +
                                    " batch " + std::to_string(batch) +
                                    (training ? " train" : " eval");
          for (Layer* layer : std::vector<Layer*>{&block, &conv, &relu, &pool}) {
            layer->set_training(training);
          }
          const tensor::Tensor x = edge_case_input(batch, s, rng);
          const tensor::Tensor& got = block.forward(x);
          const tensor::Tensor& want = pool.forward(relu.forward(conv.forward(x)));
          ASSERT_EQ(got.shape(), want.shape()) << where;
          ASSERT_EQ(bits(got), bits(want)) << where;

          tensor::Tensor grad(want.shape());
          for (auto& v : grad.flat()) {
            v = rng.uniform_index(5) == 0 ? -0.0f
                                          : static_cast<float>(rng.normal());
          }
          const tensor::Tensor& got_dx = block.backward(grad);
          const tensor::Tensor& want_dx =
              conv.backward(relu.backward(pool.backward(grad)));
          EXPECT_EQ(bits(got_dx), bits(want_dx)) << where;
          for (std::size_t i = 0; i < conv_params.size(); ++i) {
            EXPECT_EQ(bits(*block_params[i].grad), bits(*conv_params[i].grad))
                << where << " " << conv_params[i].name;
          }

          // A fresh gradient through the parameter-only path.
          for (auto& v : grad.flat()) v = static_cast<float>(rng.normal());
          block.backward_params(grad);
          conv.backward_params(relu.backward(pool.backward(grad)));
          for (std::size_t i = 0; i < conv_params.size(); ++i) {
            EXPECT_EQ(bits(*block_params[i].grad), bits(*conv_params[i].grad))
                << where << " backward_params " << conv_params[i].name;
          }
        }
      }
    }
  }
}

TEST(ConvBlock, SharesConv2DsParametersAndInitialisation) {
  // Same parameter list, order and He draws as Conv2D, so checkpoints,
  // set_parameters and a chain-built mirror see the same model.
  ConvBlock block(3, 8, 3, 1);
  Conv2D conv(3, 8, 3, 1);
  common::Rng block_rng(9), conv_rng(9);
  block.init_params(block_rng);
  conv.init_params(conv_rng);
  const auto a = block.params(), b = conv.params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value->shape(), b[i].value->shape());
    EXPECT_EQ(bits(*a[i].value), bits(*b[i].value));
    EXPECT_EQ(a[i].grad->shape(), b[i].grad->shape());
  }
  EXPECT_TRUE(block_rng.state() == conv_rng.state());
}

TEST(ConvBlock, RejectsBadInputsAndOddConvOutputs) {
  ConvBlock block(2, 4, 3, 1);
  EXPECT_THROW(block.forward(tensor::Tensor({1, 3, 4, 4})), std::invalid_argument);
  EXPECT_THROW(block.forward(tensor::Tensor({1, 2, 5, 4})), std::invalid_argument);
  const tensor::Tensor& y = block.forward(tensor::Tensor({2, 2, 6, 4}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 4, 3, 2}));
  EXPECT_THROW(block.backward(tensor::Tensor({2, 4, 2, 2})), std::invalid_argument);
}

TEST(ConvBlock, EvaluationHoldsOneGroupOfConvOutputs) {
  // The forward's scratch is one block of images in the vector lanes,
  // whatever the image count: after a training step at the benchmark's
  // minibatch of 16, a warm 256-example evaluation leaves every block's
  // arena at the same capacity, so no buffer grows with an evaluation
  // chunk.
  struct ModelCase {
    std::string name;
    Sequential model;
    std::vector<std::size_t> input;  // one image
    std::size_t blocks;
  };
  std::vector<ModelCase> cases;
  cases.push_back({"cnn2", make_cnn2(1, 12, 12, 10), {1, 12, 12}, 2});
  cases.push_back({"cnn3", make_cnn3(3, 16, 16, 10), {3, 16, 16}, 3});
  for (ModelCase& c : cases) {
    common::Rng rng(17);
    c.model.init_params(rng);
    const auto batch_of = [&](std::size_t count) {
      std::vector<std::size_t> shape = {count};
      shape.insert(shape.end(), c.input.begin(), c.input.end());
      tensor::Tensor x(shape);
      for (auto& v : x.flat()) v = static_cast<float>(rng.normal());
      std::vector<int> labels(count);
      for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
      return std::make_pair(std::move(x), std::move(labels));
    };
    const auto [train_x, train_labels] = batch_of(16);
    c.model.forward_backward(train_x, train_labels);
    std::vector<std::size_t> trained;
    for (std::size_t i = 0; i < c.blocks; ++i) {
      const tensor::ScratchArena* arena = c.model.layer(i).scratch_arena();
      ASSERT_NE(arena, nullptr) << c.name << " layer " << i;
      EXPECT_EQ(c.model.layer(i).name(), "ConvBlock");
      trained.push_back(arena->stats().capacity_floats);
    }
    const auto [eval_x, eval_labels] = batch_of(256);
    for (int i = 0; i < 2; ++i) c.model.evaluate(eval_x, eval_labels);
    for (std::size_t i = 0; i < c.blocks; ++i) {
      EXPECT_EQ(c.model.layer(i).scratch_arena()->stats().capacity_floats,
                trained[i])
          << c.name << " block " << i;
    }
  }
}

}  // namespace
}  // namespace mach::nn
