#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/kernels/gemm_variants.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace mach::tensor {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, common::Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

/// Direct (non-im2col) convolution reference, stride 1, zero padding.
Tensor naive_conv(const Tensor& input, const Tensor& weight, const Tensor& bias,
                  const ConvSpec& spec) {
  const std::size_t batch = input.dim(0), ic = spec.in_channels, h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oc = spec.out_channels, k = spec.kernel;
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  Tensor out({batch, oc, oh, ow});
  for (std::size_t img = 0; img < batch; ++img) {
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = bias[o];
          for (std::size_t c = 0; c < ic; ++c) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              for (std::size_t kx = 0; kx < k; ++kx) {
                const auto iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                static_cast<std::ptrdiff_t>(spec.pad);
                const auto ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                static_cast<std::ptrdiff_t>(spec.pad);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) || ix < 0 ||
                    ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += input.at4(img, c, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix)) *
                       weight.at4(o, c, ky, kx);
              }
            }
          }
          out.at4(img, o, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

TEST(Conv2D, ForwardMatchesNaiveReference) {
  common::Rng rng(11);
  ConvSpec spec{.in_channels = 2, .out_channels = 3, .kernel = 3, .pad = 1, .stride = 1};
  const Tensor input = random_tensor({2, 2, 6, 6}, rng);
  const Tensor weight = random_tensor({3, 2, 3, 3}, rng);
  const Tensor bias = random_tensor({3}, rng);
  Tensor output({2, 3, 6, 6});
  conv2d_forward(input, weight, bias, spec, output);
  const Tensor expected = naive_conv(input, weight, bias, spec);
  for (std::size_t i = 0; i < output.numel(); ++i) {
    ASSERT_NEAR(output[i], expected[i], 1e-4f) << "i=" << i;
  }
}

TEST(Conv2D, ForwardNoPadding) {
  common::Rng rng(12);
  ConvSpec spec{.in_channels = 1, .out_channels = 2, .kernel = 3, .pad = 0, .stride = 1};
  const Tensor input = random_tensor({1, 1, 5, 5}, rng);
  const Tensor weight = random_tensor({2, 1, 3, 3}, rng);
  const Tensor bias = random_tensor({2}, rng);
  Tensor output({1, 2, 3, 3});
  conv2d_forward(input, weight, bias, spec, output);
  const Tensor expected = naive_conv(input, weight, bias, spec);
  for (std::size_t i = 0; i < output.numel(); ++i) {
    ASSERT_NEAR(output[i], expected[i], 1e-4f);
  }
}

TEST(Conv2D, Im2ColCol2ImAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> — the two must be adjoint linear maps
  // for backprop to be correct.
  common::Rng rng(13);
  ConvSpec spec{.in_channels = 2, .out_channels = 1, .kernel = 3, .pad = 1, .stride = 1};
  const Tensor x = random_tensor({1, 2, 4, 4}, rng);
  Tensor cols;
  im2col(x, 0, spec, cols);
  const Tensor y = random_tensor(cols.shape(), rng);

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  Tensor x_back({1, 2, 4, 4});
  col2im(y, 0, spec, x_back);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * x_back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv2D, BackwardMatchesNumericalGradient) {
  common::Rng rng(14);
  ConvSpec spec{.in_channels = 1, .out_channels = 2, .kernel = 3, .pad = 1, .stride = 1};
  Tensor input = random_tensor({1, 1, 4, 4}, rng);
  Tensor weight = random_tensor({2, 1, 3, 3}, rng);
  const Tensor bias = random_tensor({2}, rng);
  // Loss = sum of outputs, so grad_output is all ones.
  Tensor output({1, 2, 4, 4});
  ScratchArena arena;
  Tensor grad_output(output.shape());
  grad_output.fill(1.0f);
  Tensor grad_input(input.shape());
  Tensor grad_weight(weight.shape());
  Tensor grad_bias(bias.shape());
  conv2d_backward(input, weight, grad_output, spec, &grad_input, grad_weight,
                  grad_bias, arena);

  auto loss = [&](const Tensor& in, const Tensor& wt) {
    Tensor out({1, 2, 4, 4});
    conv2d_forward(in, wt, bias, spec, out);
    double total = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i) total += out[i];
    return total;
  };

  const float eps = 1e-2f;
  // Spot-check a handful of input coordinates.
  for (std::size_t idx : {0u, 5u, 9u, 15u}) {
    Tensor plus = input, minus = input;
    plus[idx] += eps;
    minus[idx] -= eps;
    const double numeric = (loss(plus, weight) - loss(minus, weight)) / (2.0 * eps);
    EXPECT_NEAR(grad_input[idx], numeric, 5e-2) << "input idx " << idx;
  }
  for (std::size_t idx : {0u, 4u, 10u, 17u}) {
    Tensor plus = weight, minus = weight;
    plus[idx] += eps;
    minus[idx] -= eps;
    const double numeric = (loss(input, plus) - loss(input, minus)) / (2.0 * eps);
    EXPECT_NEAR(grad_weight[idx], numeric, 5e-2) << "weight idx " << idx;
  }
  // Bias gradient of a sum loss is the number of output pixels per channel.
  EXPECT_NEAR(grad_bias[0], 16.0f, 1e-3f);
  EXPECT_NEAR(grad_bias[1], 16.0f, 1e-3f);
}

/// Reference forward for image `img`: the retained im2col into a column
/// buffer, then the reference GEMM with the bias fused as bias_row.
std::vector<float> reference_conv_image(const Tensor& input, std::size_t img,
                                        const Tensor& weight, const Tensor& bias,
                                        const ConvSpec& spec) {
  const std::size_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  const std::size_t patch = c * spec.kernel * spec.kernel;
  std::vector<float> cols(patch * oh * ow);
  kernels::ref::im2col(input.data() + img * c * h * w, c, h, w, spec.kernel,
                       spec.pad, spec.stride, cols.data());
  std::vector<float> out(spec.out_channels * oh * ow, 0.0f);
  kernels::ref::gemm_nn({weight.data(), spec.out_channels, patch},
                        {cols.data(), patch, oh * ow},
                        {out.data(), spec.out_channels, oh * ow}, false,
                        bias.data(), nullptr);
  return out;
}

/// Bit patterns, with every NaN mapped to one pattern: which NaN an
/// operation returns depends on operand order, which the compiler may
/// commute in the scalar reference, so only NaN positions are compared.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (std::isnan(v[i])) out[i] = 0x7fc00000u;
  }
  return out;
}

/// Random values with exact signed zeros, NaN and infinities mixed in.
std::vector<float> special_vec(std::size_t count, common::Rng& rng,
                               bool specials) {
  std::vector<float> v(count);
  for (auto& x : v) {
    x = static_cast<float>(rng.normal());
    if (!specials) continue;
    // Signed zeros are common; NaN and infinities rare enough that many
    // sums stay finite.
    const std::size_t pick = rng.uniform_index(128);
    if (pick < 8) x = 0.0f;
    if (pick >= 8 && pick < 16) x = -0.0f;
    if (pick == 16) x = std::numeric_limits<float>::quiet_NaN();
    if (pick == 17) x = std::numeric_limits<float>::infinity();
    if (pick == 18) x = -std::numeric_limits<float>::infinity();
  }
  return v;
}

Tensor tensor_of(std::vector<std::size_t> shape, const std::vector<float>& v) {
  Tensor t(std::move(shape));
  std::copy(v.begin(), v.end(), t.data());
  return t;
}

TEST(Conv2D, PackFromImageMatchesReferenceIm2ColGemmBitwise) {
  // The forward must reproduce im2col + GEMM bit for bit: a block of
  // images in the vector lanes, each lane running micro_nn's chain (+0,
  // the products in increasing tap order, then the bias). Checked through
  // the public op and the dispatcher's entry on every variant this CPU
  // runs — over kernel sizes, pads, strides, non-square and odd images
  // (pixel and row fringes), out_c 5, 16, 24 and 32 (channel fringes), the
  // five benchmark layers, a patch wider than KC at out_c 16, and batches
  // of 1, 3, 5, 16, 17 and 33, so that every variant meets a partial
  // block. Images and biases carry ±0, NaN and ±inf; weights stay finite
  // and nonzero (the reference gemm_nn skips zero weights).
  common::Rng rng(15);
  struct Case {
    std::size_t channels, out_c, h, w, kernel, pad, stride;
  };
  std::vector<Case> cases = {
      {3, 8, 16, 16, 3, 1, 1}, {8, 16, 8, 8, 3, 1, 1}, {16, 32, 4, 4, 3, 1, 1},
      {1, 8, 12, 12, 3, 1, 1}, {8, 16, 6, 6, 3, 1, 1}, {40, 16, 9, 7, 3, 1, 1},
  };
  const std::pair<std::size_t, std::size_t> sizes[] = {{7, 11}, {12, 5}, {9, 9}};
  for (std::size_t out_c : {5u, 16u, 24u, 32u}) {
    for (std::size_t kernel : {1u, 3u, 5u}) {
      for (std::size_t pad : {0u, 2u}) {
        for (std::size_t stride : {1u, 2u}) {
          for (const auto& [h, w] : sizes) {
            if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
            cases.push_back({3, out_c, h, w, kernel, pad, stride});
          }
        }
      }
    }
  }
  for (const Case& c : cases) {
    for (std::size_t batch : {1u, 3u, 5u, 16u, 17u, 33u}) {
      for (bool specials : {false, true}) {
        const ConvSpec spec{.in_channels = c.channels, .out_channels = c.out_c,
                            .kernel = c.kernel, .pad = c.pad,
                            .stride = c.stride};
        const std::size_t patch = c.channels * c.kernel * c.kernel;
        const Tensor input = tensor_of(
            {batch, c.channels, c.h, c.w},
            special_vec(batch * c.channels * c.h * c.w, rng, specials));
        const Tensor weight =
            tensor_of({c.out_c, c.channels, c.kernel, c.kernel},
                      special_vec(c.out_c * patch, rng, false));
        const Tensor bias =
            tensor_of({c.out_c}, special_vec(c.out_c, rng, specials));
        const std::size_t oh = spec.out_dim(c.h), ow = spec.out_dim(c.w);
        const std::size_t plane = c.out_c * oh * ow;
        std::vector<float> want;
        for (std::size_t img = 0; img < batch; ++img) {
          const auto one = reference_conv_image(input, img, weight, bias, spec);
          want.insert(want.end(), one.begin(), one.end());
        }
        const std::string where =
            "c=" + std::to_string(c.channels) +
            " out_c=" + std::to_string(c.out_c) + " " + std::to_string(c.h) +
            "x" + std::to_string(c.w) + " kernel=" + std::to_string(c.kernel) +
            " pad=" + std::to_string(c.pad) +
            " stride=" + std::to_string(c.stride) +
            " batch=" + std::to_string(batch) + (specials ? " specials" : "");
        Tensor output({batch, c.out_c, oh, ow});
        conv2d_forward(input, weight, bias, spec, output);
        ASSERT_EQ(bits({output.data(), output.data() + batch * plane}),
                  bits(want))
            << "op " << where;
        const kernels::ConvShape shape{c.channels, c.h, c.w, c.kernel, c.pad,
                                       c.stride};
        const kernels::ConstMat w{weight.data(), c.out_c, patch};
        for (const auto* v : kernels::detail::host_variants()) {
          const std::string isa = common::gemm_isa_name(v->isa);
          std::vector<float> got(batch * plane, -3.0f);
          kernels::detail::conv_forward(*v, input.data(), batch, shape, w,
                                        bias.data(), got.data());
          ASSERT_EQ(bits(got), bits(want)) << isa << " " << where;
        }
      }
    }
  }
}

TEST(Conv2D, PackFromImageCoversWidePatchesAcrossKBlocks) {
  // patch = 40 * 3 * 3 = 360 > KC for every variant: each lane runs one
  // unsplit chain over all 360 taps, which must equal the reference's, and
  // 33 x 17 output pixels leave an odd row and ragged pixel tiles. One image
  // and a whole block plus one.
  common::Rng rng(16);
  const ConvSpec spec{.in_channels = 40, .out_channels = 6, .kernel = 3,
                      .pad = 1, .stride = 1};
  for (std::size_t batch : {1u, 17u}) {
    const Tensor input = random_tensor({batch, 40, 33, 17}, rng);
    const Tensor weight = random_tensor({6, 40, 3, 3}, rng);
    const Tensor bias = random_tensor({6}, rng);
    std::vector<float> want;
    for (std::size_t img = 0; img < batch; ++img) {
      const auto one = reference_conv_image(input, img, weight, bias, spec);
      want.insert(want.end(), one.begin(), one.end());
    }
    const kernels::ConvShape shape{40, 33, 17, 3, 1, 1};
    for (const auto* v : kernels::detail::host_variants()) {
      std::vector<float> got(want.size());
      kernels::detail::conv_forward(*v, input.data(), batch, shape,
                                    {weight.data(), 6, 360}, bias.data(),
                                    got.data());
      ASSERT_EQ(got, want) << common::gemm_isa_name(v->isa) << " batch "
                           << batch;
    }
  }
}

/// Gradients of the per-image reference composition: zero-filled dX, dW
/// and db, then per image ref::im2col, ref::gemm_nt accumulating into dW,
/// ref::gemm_tn into column gradients, ref::col2im into dX and the bias row
/// sums (a fresh accumulator per row, added once).
struct ConvGrads {
  std::vector<float> dx, dw, db;
};

ConvGrads reference_conv_backward(const std::vector<float>& input,
                                  std::size_t batch,
                                  const kernels::ConvShape& s,
                                  const std::vector<float>& weight,
                                  std::size_t out_c,
                                  const std::vector<float>& grad_out) {
  const std::size_t oh = (s.height + 2 * s.pad - s.kernel) / s.stride + 1;
  const std::size_t ow = (s.width + 2 * s.pad - s.kernel) / s.stride + 1;
  const std::size_t n = oh * ow, patch = s.channels * s.kernel * s.kernel;
  const std::size_t image = s.channels * s.height * s.width;
  ConvGrads g{std::vector<float>(batch * image, 0.0f),
              std::vector<float>(out_c * patch, 0.0f),
              std::vector<float>(out_c, 0.0f)};
  std::vector<float> cols(patch * n), gcols(patch * n);
  for (std::size_t img = 0; img < batch; ++img) {
    const float* gout = grad_out.data() + img * out_c * n;
    kernels::ref::im2col(input.data() + img * image, s.channels, s.height,
                         s.width, s.kernel, s.pad, s.stride, cols.data());
    kernels::ref::gemm_nt({gout, out_c, n}, {cols.data(), patch, n},
                          {g.dw.data(), out_c, patch}, /*accumulate=*/true);
    kernels::ref::gemm_tn({weight.data(), out_c, patch}, {gout, out_c, n},
                          {gcols.data(), patch, n});
    kernels::ref::col2im(gcols.data(), s.channels, s.height, s.width, s.kernel,
                         s.pad, s.stride, g.dx.data() + img * image);
    for (std::size_t o = 0; o < out_c; ++o) {
      float acc = 0.0f;
      for (std::size_t q = 0; q < n; ++q) acc += gout[o * n + q];
      g.db[o] += acc;
    }
  }
  return g;
}

/// Random nonzero weights, about one in 16 of them ±inf.
std::vector<float> infinite_weights(std::size_t count, common::Rng& rng) {
  std::vector<float> v = special_vec(count, rng, false);
  for (auto& x : v) {
    const std::size_t pick = rng.uniform_index(32);
    if (pick == 0) x = std::numeric_limits<float>::infinity();
    if (pick == 1) x = -std::numeric_limits<float>::infinity();
  }
  return v;
}

TEST(ConvBackward, MinibatchKernelMatchesReferenceCompositionBitwise) {
  // Every host variant, with and without the input gradient, over pads,
  // kernel sizes, strides, non-square images, a patch wider than KC, more
  // output channels than MC, and batches of 1, 3 and 16 as well as 5, 17
  // and 33, which leave a partial block of images on every variant (4, 8
  // and 16 lanes); the parameter gradients must not depend on whether dX
  // is computed. Images and output gradients carry ±0, NaN and ±inf.
  // Weights stay nonzero (the reference gemm_tn skips zero weights, which
  // the contract only matches for finite products); on the five benchmark
  // shapes a second set mixes ±inf into them, so a dX that multiplies a
  // tap outside the output by +0 instead of skipping it gets NaN.
  common::Rng rng(21);
  struct Case {
    std::size_t channels, out_c, h, w, kernel, pad, stride;
  };
  const Case cases[] = {
      {3, 8, 16, 16, 3, 1, 1}, {8, 16, 8, 8, 3, 1, 1}, {16, 32, 4, 4, 3, 1, 1},
      {1, 8, 12, 12, 3, 1, 1}, {8, 16, 6, 6, 3, 1, 1}, {2, 5, 7, 11, 1, 0, 1},
      {3, 4, 9, 5, 5, 2, 1},   {2, 3, 6, 9, 3, 0, 1},  {3, 6, 5, 7, 5, 1, 1},
      {40, 6, 5, 9, 3, 1, 1},  {2, 70, 6, 5, 3, 1, 1}, {1, 3, 13, 4, 3, 2, 1},
      {3, 4, 9, 7, 3, 1, 2},   {2, 5, 8, 8, 1, 0, 2},
  };
  constexpr std::size_t kBenchShapes = 5;  // the first five cases
  for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
    const Case& c = cases[ci];
    for (std::size_t batch : {1u, 3u, 5u, 16u, 17u, 33u}) {
      for (int mode = 0; mode < (ci < kBenchShapes ? 4 : 2); ++mode) {
        const bool specials = mode % 2 == 1, inf_weights = mode >= 2;
        const kernels::ConvShape shape{c.channels, c.h, c.w, c.kernel, c.pad,
                                       c.stride};
        const std::size_t oh = (c.h + 2 * c.pad - c.kernel) / c.stride + 1;
        const std::size_t ow = (c.w + 2 * c.pad - c.kernel) / c.stride + 1;
        const std::size_t patch = c.channels * c.kernel * c.kernel;
        const auto input =
            special_vec(batch * c.channels * c.h * c.w, rng, specials);
        const auto weight = inf_weights
                                ? infinite_weights(c.out_c * patch, rng)
                                : special_vec(c.out_c * patch, rng, false);
        const auto grad_out =
            special_vec(batch * c.out_c * oh * ow, rng, specials);
        const ConvGrads want =
            reference_conv_backward(input, batch, shape, weight, c.out_c,
                                    grad_out);
        for (const auto* v : kernels::detail::host_variants()) {
          for (bool with_dx : {true, false}) {
            std::vector<float> scratch(kernels::detail::conv_backward_scratch(
                *v, batch, shape, c.out_c, with_dx));
            ConvGrads got{std::vector<float>(want.dx.size(), -7.0f),
                          std::vector<float>(want.dw.size(), -7.0f),
                          std::vector<float>(want.db.size(), -7.0f)};
            kernels::detail::conv_backward(
                *v, input.data(), batch, shape,
                {weight.data(), c.out_c, patch}, grad_out.data(),
                with_dx ? got.dx.data() : nullptr, got.dw.data(),
                got.db.data(), scratch.data());
            const std::string where =
                std::string(common::gemm_isa_name(v->isa)) +
                " c=" + std::to_string(c.channels) +
                " out_c=" + std::to_string(c.out_c) + " " +
                std::to_string(c.h) + "x" + std::to_string(c.w) +
                " k=" + std::to_string(c.kernel) +
                " pad=" + std::to_string(c.pad) +
                " stride=" + std::to_string(c.stride) +
                " batch=" + std::to_string(batch) +
                (specials ? " specials" : "") +
                (inf_weights ? " inf-weights" : "") +
                (with_dx ? " dx" : " no-dx");
            ASSERT_EQ(bits(got.dw), bits(want.dw)) << where;
            ASSERT_EQ(bits(got.db), bits(want.db)) << where;
            if (with_dx) {
              ASSERT_EQ(bits(got.dx), bits(want.dx)) << where;
            }
          }
        }
      }
    }
  }
}

TEST(ConvBackward, LargeMinibatchesSplitIntoGroupsLosslessly) {
  // Enough images that the minibatch runs as several blocks of images, each
  // continuing from the gradients the previous one stored, in scratch sized
  // for one block whatever the count; 41 also leaves a partial last block.
  common::Rng rng(22);
  const kernels::ConvShape shape{8, 28, 28, 3, 1, 1};
  const std::size_t out_c = 16, patch = 72;
  for (std::size_t batch : {40u, 41u}) {
    const auto input = special_vec(batch * 8 * 28 * 28, rng, false);
    const auto weight = special_vec(out_c * patch, rng, false);
    const auto grad_out = special_vec(batch * out_c * 28 * 28, rng, false);
    const ConvGrads want =
        reference_conv_backward(input, batch, shape, weight, out_c, grad_out);
    std::vector<float> scratch(
        kernels::conv_backward_scratch(batch, shape, out_c, true));
    EXPECT_EQ(scratch.size(),
              kernels::conv_backward_scratch(1, shape, out_c, true));
    ConvGrads got{std::vector<float>(want.dx.size()),
                  std::vector<float>(want.dw.size()),
                  std::vector<float>(want.db.size())};
    kernels::conv_backward(input.data(), batch, shape,
                           {weight.data(), out_c, patch}, grad_out.data(),
                           got.dx.data(), got.dw.data(), got.db.data(),
                           scratch.data());
    EXPECT_EQ(bits(got.dw), bits(want.dw)) << "batch=" << batch;
    EXPECT_EQ(bits(got.db), bits(want.db)) << "batch=" << batch;
    EXPECT_EQ(bits(got.dx), bits(want.dx)) << "batch=" << batch;
  }
}

TEST(ConvBackward, TensorOpSkipsOnlyTheInputGradient) {
  common::Rng rng(23);
  const ConvSpec spec{.in_channels = 3, .out_channels = 4, .kernel = 3,
                      .pad = 1, .stride = 1};
  const Tensor input = random_tensor({5, 3, 6, 6}, rng);
  const Tensor weight = random_tensor({4, 3, 3, 3}, rng);
  const Tensor grad_output = random_tensor({5, 4, 6, 6}, rng);
  ScratchArena arena;
  Tensor dx(input.shape()), dw(weight.shape()), db({4});
  conv2d_backward(input, weight, grad_output, spec, &dx, dw, db, arena);
  Tensor dw2(weight.shape()), db2({4});
  conv2d_backward(input, weight, grad_output, spec, nullptr, dw2, db2, arena);
  const auto vec = [](const Tensor& t) {
    return std::vector<float>(t.flat().begin(), t.flat().end());
  };
  EXPECT_EQ(bits(vec(dw)), bits(vec(dw2)));
  EXPECT_EQ(bits(vec(db)), bits(vec(db2)));
  Tensor bad({5, 3, 6, 5});
  EXPECT_THROW(
      conv2d_backward(input, weight, grad_output, spec, &bad, dw, db, arena),
      std::invalid_argument);
}

TEST(ConvReluPool, GroupedForwardMatchesConvReluPoolOnEveryVariant) {
  // conv_relu_pool_forward against conv_forward, relu and the seed pool
  // loops on every host variant: the five benchmark conv stages, a shape
  // with odd window counts, and a wide one (70 channels, 24 x 24);
  // minibatches of one image, a whole AVX-512 block and 37 (a partial last
  // block on every variant); images and biases with ±0, NaN and ±inf. The
  // scratch is one block's, the same at every image count.
  common::Rng rng(24);
  struct Case {
    std::size_t channels, out_c, h, w;
  };
  const Case cases[] = {{3, 8, 16, 16}, {8, 16, 8, 8}, {16, 32, 4, 4},
                        {1, 8, 12, 12}, {8, 16, 6, 6}, {2, 3, 10, 6},
                        {2, 70, 24, 24}};
  for (const Case& c : cases) {
    for (std::size_t batch : {1u, 16u, 37u}) {
      for (bool specials : {false, true}) {
        const kernels::ConvShape shape{c.channels, c.h, c.w, 3, 1, 1};
        const std::size_t patch = c.channels * 9, plane = c.out_c * c.h * c.w;
        const std::size_t planes = batch * c.out_c, outputs = batch * plane / 4;
        const auto input =
            special_vec(batch * c.channels * c.h * c.w, rng, specials);
        const auto weight = special_vec(c.out_c * patch, rng, false);
        const auto bias = special_vec(c.out_c, rng, specials);
        const std::size_t scratch_size =
            kernels::conv_relu_pool_scratch(batch, shape, c.out_c);
        for (std::size_t other : {1u, 16u, 256u}) {
          EXPECT_EQ(kernels::conv_relu_pool_scratch(other, shape, c.out_c),
                    scratch_size);
        }
        for (const auto* v : kernels::detail::host_variants()) {
          std::vector<float> conv(batch * plane), relu_out(batch * plane);
          kernels::detail::conv_forward(*v, input.data(), batch, shape,
                                        {weight.data(), c.out_c, patch},
                                        bias.data(), conv.data());
          kernels::relu(conv.size(), conv.data(), relu_out.data());
          std::vector<float> want(outputs);
          std::vector<std::uint32_t> argmax(outputs);
          kernels::ref::maxpool2x2_forward(relu_out.data(), planes, c.h, c.w,
                                           want.data(), argmax.data());

          std::vector<float> scratch(scratch_size), got(outputs, -5.0f);
          std::vector<std::uint8_t> codes(outputs, 9);
          kernels::detail::conv_relu_pool_forward(
              *v, input.data(), batch, shape, {weight.data(), c.out_c, patch},
              bias.data(), got.data(), codes.data(), scratch.data());
          const std::string where =
              std::string(common::gemm_isa_name(v->isa)) +
              " c=" + std::to_string(c.channels) +
              " out_c=" + std::to_string(c.out_c) + " " +
              std::to_string(c.h) + "x" + std::to_string(c.w) +
              " batch=" + std::to_string(batch) + (specials ? " specials" : "");
          ASSERT_EQ(bits(got), bits(want)) << where;
          for (std::size_t i = 0; i < outputs; ++i) {
            const std::uint32_t at = argmax[i];
            ASSERT_EQ(codes[i], (at % c.w) % 2 + 2 * ((at / c.w) % 2))
                << where << " window " << i;
          }
        }
      }
    }
  }
}

TEST(ConvReluPool, TensorOpMatchesTheChainOpsInOneGroupSpan) {
  common::Rng rng(25);
  const ConvSpec spec{.in_channels = 3, .out_channels = 8, .kernel = 3,
                      .pad = 1, .stride = 1};
  const Tensor input = random_tensor({40, 3, 16, 16}, rng);
  const Tensor weight = random_tensor({8, 3, 3, 3}, rng);
  const Tensor bias = random_tensor({8}, rng);
  Tensor conv({40, 8, 16, 16}), relu_out(conv.shape()), want({40, 8, 8, 8});
  std::vector<std::uint32_t> argmax;
  conv2d_forward(input, weight, bias, spec, conv);
  relu_forward(conv, relu_out);
  maxpool2x2_forward(relu_out, want, argmax);

  ScratchArena arena;
  Tensor got(want.shape());
  std::vector<std::uint8_t> codes;
  conv2d_relu_pool_forward(input, weight, bias, spec, got, codes, arena);
  const auto vec = [](const Tensor& t) {
    return std::vector<float>(t.flat().begin(), t.flat().end());
  };
  EXPECT_EQ(bits(vec(got)), bits(vec(want)));
  ASSERT_EQ(codes.size(), want.numel());
  // One span of one block's scratch, whatever the image count.
  const kernels::ConvShape shape{3, 16, 16, 3, 1, 1};
  const std::size_t one_block = kernels::conv_relu_pool_scratch(40, shape, 8);
  EXPECT_EQ(arena.stats().capacity_floats, one_block);
  for (std::size_t count : {1u, 16u, 256u}) {
    EXPECT_EQ(kernels::conv_relu_pool_scratch(count, shape, 8), one_block);
  }

  Tensor grad = random_tensor(want.shape(), rng);
  Tensor want_dx(conv.shape()), got_dx(conv.shape());
  Tensor pool_grad(conv.shape());
  maxpool2x2_backward(grad, argmax, pool_grad);
  relu_backward(relu_out, pool_grad, want_dx);
  relu_pool_backward(got, codes, grad, got_dx);
  EXPECT_EQ(bits(vec(got_dx)), bits(vec(want_dx)));

  Tensor odd({40, 8, 7, 8});
  EXPECT_THROW(conv2d_relu_pool_forward(random_tensor({40, 3, 15, 16}, rng),
                                        weight, bias, spec, odd, codes, arena),
               std::invalid_argument);
  Tensor wrong({40, 8, 16, 14});
  EXPECT_THROW(relu_pool_backward(got, codes, grad, wrong), std::invalid_argument);
}

TEST(ConvSpec, OutputDimension) {
  ConvSpec spec{.in_channels = 1, .out_channels = 1, .kernel = 3, .pad = 1, .stride = 1};
  EXPECT_EQ(spec.out_dim(12), 12u);
  spec.pad = 0;
  EXPECT_EQ(spec.out_dim(12), 10u);
}

}  // namespace
}  // namespace mach::tensor
