#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"

namespace mach::nn {
namespace {

TEST(Dense, ForwardShapeAndBias) {
  Dense layer(3, 2);
  common::Rng rng(1);
  layer.init_params(rng);
  // Zero the weights, set bias to known values -> output equals bias.
  auto params = layer.params();
  params[0].value->zero();
  (*params[1].value)[0] = 1.5f;
  (*params[1].value)[1] = -2.0f;
  tensor::Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto& y = layer.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_FLOAT_EQ(y.at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at2(1, 1), -2.0f);
}

TEST(Dense, ForwardRejectsBadShape) {
  Dense layer(3, 2);
  tensor::Tensor x({2, 4});
  EXPECT_THROW(layer.forward(x), std::invalid_argument);
}

TEST(Dense, ParamsExposeWeightAndBias) {
  Dense layer(4, 5);
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->numel(), 20u);
  EXPECT_EQ(params[1].value->numel(), 5u);
  EXPECT_EQ(params[0].name, "weight");
  EXPECT_EQ(params[1].name, "bias");
}

TEST(Dense, InitParamsHeScale) {
  Dense layer(1000, 10);
  common::Rng rng(2);
  layer.init_params(rng);
  const auto params = layer.params();
  double m2 = 0.0;
  for (float w : params[0].value->flat()) m2 += static_cast<double>(w) * w;
  const double variance = m2 / static_cast<double>(params[0].value->numel());
  EXPECT_NEAR(variance, 2.0 / 1000.0, 2e-4);  // He: var = 2/fan_in
  for (float b : params[1].value->flat()) EXPECT_EQ(b, 0.0f);
}

TEST(Dense, HandlesVaryingBatchSizes) {
  Dense layer(3, 2);
  common::Rng rng(3);
  layer.init_params(rng);
  tensor::Tensor big({8, 3});
  tensor::Tensor small({2, 3});
  EXPECT_EQ(layer.forward(big).dim(0), 8u);
  EXPECT_EQ(layer.forward(small).dim(0), 2u);
}

TEST(ReLULayer, ZeroesNegativeAndRoutesGradient) {
  ReLU layer;
  tensor::Tensor x({1, 4}, {-2, -0.5, 0.5, 2});
  const auto& y = layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 2.0f);
  tensor::Tensor g({1, 4}, {1, 1, 1, 1});
  const auto& gin = layer.backward(g);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[2], 1.0f);
}

TEST(ReLULayer, BackwardMasksLikeTheInputOnNaNSignedZerosAndInfinities) {
  // Backward masks on the layer's output: y > 0 must hold exactly where
  // x > 0 does, so the gradient is the one the input mask gives.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> xs = {nan, -nan, 0.0f, -0.0f, inf, -inf, 2.5f, -1.0f};
  ReLU layer;
  tensor::Tensor x({1, xs.size()}, xs);
  layer.forward(x);
  tensor::Tensor g({1, xs.size()}, {1, -2, 3, -4, 5, -6, 7, -0.0f});
  const auto& gin = layer.backward(g);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float want = xs[i] > 0.0f ? g[i] : 0.0f;
    const float got = gin[i];
    std::uint32_t got_bits = 0, want_bits = 0;
    std::memcpy(&got_bits, &got, sizeof got_bits);
    std::memcpy(&want_bits, &want, sizeof want_bits);
    EXPECT_EQ(got_bits, want_bits) << "x[" << i << "] = " << xs[i];
  }
}

TEST(FlattenLayer, RoundTripsShape) {
  Flatten layer;
  tensor::Tensor x({2, 3, 2, 2});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const auto& y = layer.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  EXPECT_FLOAT_EQ(y.at2(1, 0), 12.0f);
  tensor::Tensor g({2, 12});
  g.fill(1.0f);
  const auto& gin = layer.backward(g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(MaxPoolLayer, ForwardBackwardShapes) {
  MaxPool2x2 layer;
  tensor::Tensor x({2, 3, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i % 7);
  const auto& y = layer.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 2, 2}));
  tensor::Tensor g(y.shape());
  g.fill(1.0f);
  const auto& gin = layer.backward(g);
  EXPECT_EQ(gin.shape(), x.shape());
  double total = 0.0;
  for (std::size_t i = 0; i < gin.numel(); ++i) total += gin[i];
  EXPECT_NEAR(total, static_cast<double>(y.numel()), 1e-5);
}

TEST(Conv2DLayer, ForwardShape) {
  Conv2D layer(3, 8, 3, 1);
  common::Rng rng(4);
  layer.init_params(rng);
  tensor::Tensor x({2, 3, 6, 6});
  const auto& y = layer.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 6, 6}));
}

TEST(Conv2DLayer, WrongChannelCountThrows) {
  Conv2D layer(3, 8, 3, 1);
  tensor::Tensor x({2, 4, 6, 6});
  EXPECT_THROW(layer.forward(x), std::invalid_argument);
}

TEST(Conv2DLayer, ParamCount) {
  Conv2D layer(2, 4, 3, 1);
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->numel(), 4u * 2u * 3u * 3u);
  EXPECT_EQ(params[1].value->numel(), 4u);
}

}  // namespace
}  // namespace mach::nn
