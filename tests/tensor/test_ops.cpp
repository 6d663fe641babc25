#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu_isa.h"
#include "common/rng.h"
#include "tensor/kernels/gemm_variants.h"
#include "tensor/kernels/kernels.h"

namespace mach::tensor {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, common::Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// Naive triple-loop reference GEMM.
Tensor naive_gemm(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a.at2(i, p) * b.at2(p, j);
      c.at2(i, j) = acc;
    }
  }
  return c;
}

void expect_near(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

TEST(Gemm, MatchesNaiveReference) {
  common::Rng rng(1);
  const Tensor a = random_tensor({5, 7}, rng);
  const Tensor b = random_tensor({7, 4}, rng);
  Tensor c({5, 4});
  gemm(a, b, c);
  expect_near(c, naive_gemm(a, b));
}

TEST(Gemm, AccumulateAddsToExisting) {
  common::Rng rng(2);
  const Tensor a = random_tensor({3, 3}, rng);
  const Tensor b = random_tensor({3, 3}, rng);
  Tensor c({3, 3});
  c.fill(1.0f);
  gemm(a, b, c, /*accumulate=*/true);
  Tensor expected = naive_gemm(a, b);
  for (auto& v : expected.flat()) v += 1.0f;
  expect_near(c, expected);
}

TEST(Gemm, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 2}), c({2, 2});
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
}

TEST(Gemm, TransposedAMatchesReference) {
  common::Rng rng(3);
  const Tensor a = random_tensor({6, 4}, rng);  // A^T is 4x6
  const Tensor b = random_tensor({6, 5}, rng);
  Tensor c({4, 5});
  gemm_at_b(a, b, c);
  // Reference: transpose a then naive gemm.
  Tensor at({4, 6});
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j) at.at2(j, i) = a.at2(i, j);
  expect_near(c, naive_gemm(at, b));
}

TEST(Gemm, TransposedBMatchesReference) {
  common::Rng rng(4);
  const Tensor a = random_tensor({4, 6}, rng);
  const Tensor b = random_tensor({5, 6}, rng);  // B^T is 6x5
  Tensor c({4, 5});
  gemm_a_bt(a, b, c);
  Tensor bt({6, 5});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 6; ++j) bt.at2(j, i) = b.at2(i, j);
  expect_near(c, naive_gemm(a, bt));
}

TEST(Bias, AddRowBias) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {10, 20, 30});
  add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(x.at2(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(x.at2(1, 2), 31.0f);
}

TEST(Bias, SumRows) {
  Tensor grad({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias_grad({3});
  sum_rows(grad, bias_grad);
  EXPECT_FLOAT_EQ(bias_grad[0], 5.0f);
  EXPECT_FLOAT_EQ(bias_grad[1], 7.0f);
  EXPECT_FLOAT_EQ(bias_grad[2], 9.0f);
  sum_rows(grad, bias_grad, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(bias_grad[0], 10.0f);
}

TEST(Relu, ForwardAndBackward) {
  Tensor x({4}, {-1, 0, 2, -3});
  Tensor y({4});
  relu_forward(x, y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  Tensor gout({4}, {1, 1, 1, 1});
  Tensor gin({4});
  relu_backward(x, gout, gin);
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_FLOAT_EQ(gin[1], 0.0f);  // exactly zero input -> no gradient
  EXPECT_FLOAT_EQ(gin[2], 1.0f);
  EXPECT_FLOAT_EQ(gin[3], 0.0f);
}

TEST(Softmax, RowsSumToOne) {
  common::Rng rng(5);
  const Tensor logits = random_tensor({6, 10}, rng);
  Tensor probs({6, 10});
  softmax(logits, probs);
  for (std::size_t i = 0; i < 6; ++i) {
    float total = 0.0f;
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_GE(probs.at2(i, j), 0.0f);
      total += probs.at2(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1000.0f, 900.0f});
  Tensor probs({1, 3});
  softmax(logits, probs);
  EXPECT_NEAR(probs[0], 0.5f, 1e-5f);
  EXPECT_NEAR(probs[1], 0.5f, 1e-5f);
  EXPECT_NEAR(probs[2], 0.0f, 1e-5f);
}

TEST(CrossEntropy, KnownValue) {
  Tensor probs({2, 2}, {0.5f, 0.5f, 0.25f, 0.75f});
  const std::vector<int> labels = {0, 1};
  const double expected = -(std::log(0.5) + std::log(0.75)) / 2.0;
  EXPECT_NEAR(cross_entropy_loss(probs, labels), expected, 1e-6);
}

TEST(CrossEntropy, LabelOutOfRangeThrows) {
  Tensor probs({1, 2}, {0.5f, 0.5f});
  const std::vector<int> labels = {2};
  EXPECT_THROW(cross_entropy_loss(probs, labels), std::out_of_range);
}

TEST(CrossEntropy, BackwardIsProbsMinusOnehotOverBatch) {
  Tensor probs({2, 3}, {0.2f, 0.3f, 0.5f, 0.6f, 0.3f, 0.1f});
  const std::vector<int> labels = {2, 0};
  Tensor grad({2, 3});
  softmax_cross_entropy_backward(probs, labels, grad);
  EXPECT_NEAR(grad.at2(0, 0), 0.1f, 1e-6f);
  EXPECT_NEAR(grad.at2(0, 2), (0.5f - 1.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(grad.at2(1, 0), (0.6f - 1.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(grad.at2(1, 1), 0.15f, 1e-6f);
}

TEST(CountCorrect, ArgmaxAccuracy) {
  Tensor logits({3, 2}, {2.0f, 1.0f, 0.0f, 3.0f, 5.0f, 4.0f});
  const std::vector<int> labels = {0, 1, 1};
  EXPECT_EQ(count_correct(logits, labels), 2u);
}

TEST(MaxPool, ForwardSelectsMaxAndBackwardRoutesGradient) {
  // One 4x4 image, one channel.
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  Tensor y({1, 1, 2, 2});
  std::vector<std::uint32_t> argmax;
  maxpool2x2_forward(x, y, argmax);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  EXPECT_FLOAT_EQ(y[2], 13.0f);
  EXPECT_FLOAT_EQ(y[3], 15.0f);

  Tensor gout({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor gin({1, 1, 4, 4});
  maxpool2x2_backward(gout, argmax, gin);
  EXPECT_FLOAT_EQ(gin[5], 1.0f);
  EXPECT_FLOAT_EQ(gin[7], 2.0f);
  EXPECT_FLOAT_EQ(gin[13], 3.0f);
  EXPECT_FLOAT_EQ(gin[15], 4.0f);
  float total = 0.0f;
  for (std::size_t i = 0; i < 16; ++i) total += gin[i];
  EXPECT_FLOAT_EQ(total, 10.0f);
}

TEST(MaxPool, MatchesTheSeedLoopsBitwiseOnTiesNaNAndSignedZeros) {
  // Branch-free forward and fill-plus-scatter backward against the
  // retained seed loops: ties keep the first candidate, NaN never wins, and
  // a -0 gradient lands as 0.0f + -0 = +0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {-1.0f, 0.0f, -0.0f, 1.0f, 1.0f, nan, inf, -inf};
  common::Rng rng(41);
  const std::vector<std::vector<std::size_t>> shapes = {
      {2, 3, 4, 6}, {1, 2, 8, 2}, {3, 1, 2, 10}, {16, 8, 16, 16}};
  for (const auto& shape : shapes) {
    Tensor x(shape);
    for (auto& v : x.flat()) v = values[rng.uniform_index(8)];
    const std::size_t planes = shape[0] * shape[1];
    Tensor y({shape[0], shape[1], shape[2] / 2, shape[3] / 2});
    Tensor gout(y.shape());
    for (auto& v : gout.flat()) {
      v = rng.uniform_index(4) == 0 ? -0.0f : static_cast<float>(rng.normal());
    }
    std::vector<std::uint32_t> argmax;
    maxpool2x2_forward(x, y, argmax);
    Tensor gin(x.shape());
    gin.fill(5.0f);  // every cell must be overwritten
    maxpool2x2_backward(gout, argmax, gin);

    std::vector<float> ref_y(y.numel()), ref_gin(x.numel());
    std::vector<std::uint32_t> ref_argmax(y.numel());
    kernels::ref::maxpool2x2_forward(x.data(), planes, shape[2], shape[3],
                                     ref_y.data(), ref_argmax.data());
    kernels::ref::maxpool2x2_backward(gout.data(), ref_argmax.data(), planes,
                                      shape[2], shape[3], ref_gin.data());
    const auto bits = [](const float* p, std::size_t n) {
      std::vector<std::uint32_t> out(n);
      std::memcpy(out.data(), p, n * sizeof(float));
      return out;
    };
    EXPECT_EQ(bits(y.data(), y.numel()), bits(ref_y.data(), ref_y.size()));
    EXPECT_EQ(bits(gin.data(), gin.numel()),
              bits(ref_gin.data(), ref_gin.size()));
  }
}

TEST(ReluMaxPool, MatchesReluThenTheSeedPoolBitwise) {
  // The fused ReLU + pool against relu() followed by the seed pool loops,
  // driven through conv_relu_pool_forward on every variant as a one-channel
  // 1x1 convolution of weight 1, pad 0 and no bias, each plane one image:
  // its conv output is +0 + 1 * x, which the ReLU maps exactly as it maps
  // x. Ties keep the first candidate, NaN, -inf and -0 become +0 first, and
  // each code names the seed loop's argmax. Widths with an odd window count
  // and image counts off a multiple of every lane count reach the tails;
  // the backward must equal the seed backward followed by relu_bwd masked
  // on the ReLU output, which a -0 gradient leaves as +0.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {-1.0f, 0.0f, -0.0f, 1.0f, 1.0f, 2.0f, nan, inf, -inf};
  const auto bits = [](const std::vector<float>& v) {
    std::vector<std::uint32_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
    return out;
  };
  const float one = 1.0f;
  common::Rng rng(43);
  const std::vector<std::vector<std::size_t>> shapes = {  // planes, h, w
      {1, 2, 2},  {3, 2, 6},   {5, 4, 4},    {2, 6, 10}, {7, 2, 12},
      {1, 8, 14}, {9, 6, 6},   {16, 16, 16}, {128, 12, 12}, {512, 4, 4}};
  for (const auto& s : shapes) {
    const std::size_t planes = s[0], h = s[1], w = s[2];
    const std::size_t size = planes * h * w, outputs = size / 4;
    const kernels::ConvShape identity{1, h, w, 1, 0, 1};
    for (const bool normal : {false, true}) {
      std::vector<float> x(size);
      for (auto& v : x) {
        v = normal && rng.uniform_index(4) != 0 ? static_cast<float>(rng.normal())
                                                : values[rng.uniform_index(9)];
      }
      std::vector<float> relu_x(size), want(outputs);
      std::vector<std::uint32_t> argmax(outputs);
      kernels::relu(size, x.data(), relu_x.data());
      kernels::ref::maxpool2x2_forward(relu_x.data(), planes, h, w, want.data(),
                                       argmax.data());
      const std::string where = std::to_string(planes) + "x" +
                                std::to_string(h) + "x" + std::to_string(w) +
                                (normal ? " normal" : " specials");
      std::vector<float> got;
      std::vector<std::uint8_t> codes;
      for (const auto* v : kernels::detail::host_variants()) {
        got.assign(outputs, -5.0f);
        codes.assign(outputs, 9);
        std::vector<float> scratch(kernels::detail::conv_relu_pool_scratch(
            *v, planes, identity, 1));
        kernels::detail::conv_relu_pool_forward(
            *v, x.data(), planes, identity, {&one, 1, 1}, nullptr, got.data(),
            codes.data(), scratch.data());
        const std::string at = std::string(common::gemm_isa_name(v->isa)) +
                               " " + where;
        ASSERT_EQ(bits(got), bits(want)) << at;
        for (std::size_t i = 0; i < outputs; ++i) {
          const std::uint32_t a = argmax[i];
          ASSERT_EQ(codes[i], (a % w) % 2 + 2 * ((a / w) % 2))
              << at << " " << i;
        }
      }

      std::vector<float> gout(outputs);
      for (auto& v : gout) {
        v = rng.uniform_index(4) == 0 ? -0.0f : static_cast<float>(rng.normal());
      }
      std::vector<float> pool_grad(size), want_gx(size), got_gx(size, 5.0f);
      kernels::ref::maxpool2x2_backward(gout.data(), argmax.data(), planes, h,
                                        w, pool_grad.data());
      kernels::relu_bwd(size, relu_x.data(), pool_grad.data(), want_gx.data());
      kernels::relu_maxpool2x2_backward(planes * h / 2, w, got.data(),
                                        codes.data(), gout.data(),
                                        got_gx.data());
      EXPECT_EQ(bits(got_gx), bits(want_gx)) << where;
    }
  }
}

TEST(MaxPool, OddDimensionsThrow) {
  Tensor x({1, 1, 3, 4});
  Tensor y({1, 1, 1, 2});
  std::vector<std::uint32_t> argmax;
  EXPECT_THROW(maxpool2x2_forward(x, y, argmax), std::invalid_argument);
}

}  // namespace
}  // namespace mach::tensor
