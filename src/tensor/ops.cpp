#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/kernels/kernels.h"

namespace mach::tensor {

namespace {

namespace kern = kernels;

void check_rank2(const Tensor& t, const char* what) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(what) + ": rank must be 2");
}

kern::ConstMat view2d(const Tensor& t) { return {t.data(), t.dim(0), t.dim(1)}; }
kern::Mat view2d(Tensor& t) { return {t.data(), t.dim(0), t.dim(1)}; }

}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_rank2(a, "gemm A");
  check_rank2(b, "gemm B");
  check_rank2(c, "gemm C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
  kern::gemm_nn(view2d(a), view2d(b), view2d(c), accumulate);
}

void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_rank2(a, "gemm_at_b A");
  check_rank2(b, "gemm_at_b B");
  check_rank2(c, "gemm_at_b C");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_at_b: shape mismatch");
  }
  kern::gemm_tn(view2d(a), view2d(b), view2d(c), accumulate);
}

void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_rank2(a, "gemm_a_bt A");
  check_rank2(b, "gemm_a_bt B");
  check_rank2(c, "gemm_a_bt C");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("gemm_a_bt: shape mismatch");
  }
  kern::gemm_nt(view2d(a), view2d(b), view2d(c), accumulate);
}

void linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                    Tensor& output) {
  check_rank2(input, "linear_forward input");
  check_rank2(weight, "linear_forward weight");
  check_rank2(output, "linear_forward output");
  const std::size_t m = input.dim(0), k = input.dim(1), n = weight.dim(1);
  if (weight.dim(0) != k || output.dim(0) != m || output.dim(1) != n ||
      bias.numel() != n) {
    throw std::invalid_argument("linear_forward: shape mismatch");
  }
  kern::gemm_nn(view2d(input), view2d(weight), view2d(output),
                /*accumulate=*/false, /*bias_row=*/nullptr,
                /*bias_col=*/bias.data());
}

void add_row_bias(Tensor& x, const Tensor& bias) {
  check_rank2(x, "add_row_bias x");
  const std::size_t m = x.dim(0), n = x.dim(1);
  if (bias.numel() != n) throw std::invalid_argument("add_row_bias: bias size mismatch");
  kern::add_bias_rows(m, n, bias.data(), x.data());
}

void sum_rows(const Tensor& grad, Tensor& bias_grad, bool accumulate) {
  check_rank2(grad, "sum_rows grad");
  const std::size_t m = grad.dim(0), n = grad.dim(1);
  if (bias_grad.numel() != n) throw std::invalid_argument("sum_rows: size mismatch");
  kern::col_sums(m, n, grad.data(), bias_grad.data(), accumulate);
}

void im2col(const Tensor& input, std::size_t image_index, const ConvSpec& spec,
            Tensor& columns) {
  const std::size_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  const std::size_t rows = c * spec.kernel * spec.kernel;
  const std::size_t cols = oh * ow;
  if (columns.rank() != 2 || columns.dim(0) != rows || columns.dim(1) != cols) {
    columns = Tensor({rows, cols});
  }
  kern::im2col(input.data() + image_index * c * h * w, c, h, w, spec.kernel,
               spec.pad, spec.stride, columns.data());
}

void col2im(const Tensor& columns, std::size_t image_index, const ConvSpec& spec,
            Tensor& grad_input) {
  const std::size_t c = grad_input.dim(1), h = grad_input.dim(2), w = grad_input.dim(3);
  kern::col2im(columns.data(), c, h, w, spec.kernel, spec.pad, spec.stride,
               grad_input.data() + image_index * c * h * w);
}

void conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                    const ConvSpec& spec, Tensor& output) {
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  const std::size_t out_c = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (input.dim(1) != spec.in_channels) {
    throw std::invalid_argument("conv2d_forward: channel mismatch");
  }
  if (output.rank() != 4 || output.dim(0) != batch || output.dim(1) != out_c ||
      output.dim(2) != oh || output.dim(3) != ow) {
    throw std::invalid_argument("conv2d_forward: bad output shape");
  }
  // Weight viewed in place as [out_c, patch], each image's output plane as
  // [out_c, oh*ow]: the same float chains as im2col, GEMM, then bias add,
  // with no im2col buffer.
  const kern::ConvShape shape{spec.in_channels, h, w, spec.kernel, spec.pad,
                              spec.stride};
  kern::conv_forward(input.data(), batch, shape, {weight.data(), out_c, patch},
                     bias.data(), output.data());
}

void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, const ConvSpec& spec,
                     Tensor* grad_input, Tensor& grad_weight, Tensor& grad_bias,
                     ScratchArena& arena) {
  if (input.rank() != 4 || input.dim(1) != spec.in_channels) {
    throw std::invalid_argument("conv2d_backward: bad input shape");
  }
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t out_c = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (grad_output.rank() != 4 || grad_output.dim(0) != batch ||
      grad_output.dim(1) != out_c || grad_output.dim(2) != spec.out_dim(h) ||
      grad_output.dim(3) != spec.out_dim(w) ||
      weight.numel() != out_c * patch || grad_weight.numel() != out_c * patch ||
      grad_bias.numel() != out_c ||
      (grad_input != nullptr && !grad_input->same_shape(input))) {
    throw std::invalid_argument("conv2d_backward: shape mismatch");
  }
  const kern::ConvShape shape{spec.in_channels, h, w, spec.kernel, spec.pad,
                              spec.stride};
  // One arena span, so there is no second allocation that could move it.
  arena.reset();
  float* scratch = arena.alloc(
      kern::conv_backward_scratch(batch, shape, out_c, grad_input != nullptr));
  kern::conv_backward(input.data(), batch, shape, {weight.data(), out_c, patch},
                      grad_output.data(),
                      grad_input != nullptr ? grad_input->data() : nullptr,
                      grad_weight.data(), grad_bias.data(), scratch);
}

void conv2d_relu_pool_forward(const Tensor& input, const Tensor& weight,
                              const Tensor& bias, const ConvSpec& spec,
                              Tensor& pooled, std::vector<std::uint8_t>& codes,
                              ScratchArena& arena) {
  if (input.rank() != 4 || input.dim(1) != spec.in_channels) {
    throw std::invalid_argument("conv2d_relu_pool_forward: bad input shape");
  }
  const std::size_t batch = input.dim(0);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  const std::size_t out_c = spec.out_channels;
  const std::size_t patch = spec.in_channels * spec.kernel * spec.kernel;
  if (oh % 2 != 0 || ow % 2 != 0) {
    throw std::invalid_argument("conv2d_relu_pool_forward: odd conv output");
  }
  if (pooled.rank() != 4 || pooled.dim(0) != batch || pooled.dim(1) != out_c ||
      pooled.dim(2) != oh / 2 || pooled.dim(3) != ow / 2 ||
      weight.numel() != out_c * patch || bias.numel() != out_c) {
    throw std::invalid_argument("conv2d_relu_pool_forward: shape mismatch");
  }
  // Every entry is written, so a warm vector is only resized.
  codes.resize(pooled.numel());
  const kern::ConvShape shape{spec.in_channels, h, w, spec.kernel, spec.pad,
                              spec.stride};
  arena.reset();
  float* scratch = arena.alloc(kern::conv_relu_pool_scratch(batch, shape, out_c));
  kern::conv_relu_pool_forward(input.data(), batch, shape,
                               {weight.data(), out_c, patch}, bias.data(),
                               pooled.data(), codes.data(), scratch);
}

void relu_pool_backward(const Tensor& pooled,
                        const std::vector<std::uint8_t>& codes,
                        const Tensor& grad_pooled, Tensor& grad_conv) {
  if (pooled.rank() != 4 || !pooled.same_shape(grad_pooled) ||
      codes.size() != pooled.numel() || grad_conv.rank() != 4 ||
      grad_conv.dim(0) != pooled.dim(0) || grad_conv.dim(1) != pooled.dim(1) ||
      grad_conv.dim(2) != 2 * pooled.dim(2) ||
      grad_conv.dim(3) != 2 * pooled.dim(3)) {
    throw std::invalid_argument("relu_pool_backward: shape mismatch");
  }
  kern::relu_maxpool2x2_backward(pooled.dim(0) * pooled.dim(1) * pooled.dim(2),
                                 grad_conv.dim(3), pooled.data(), codes.data(),
                                 grad_pooled.data(), grad_conv.data());
}

void maxpool2x2_forward(const Tensor& input, Tensor& output,
                        std::vector<std::uint32_t>& argmax) {
  const std::size_t batch = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  if (h % 2 != 0 || w % 2 != 0) {
    throw std::invalid_argument("maxpool2x2: odd input dimensions");
  }
  const std::size_t ow = w / 2;
  if (output.rank() != 4 || output.dim(0) != batch || output.dim(1) != c ||
      output.dim(2) != h / 2 || output.dim(3) != ow) {
    throw std::invalid_argument("maxpool2x2: bad output shape");
  }
  if (input.numel() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("maxpool2x2: input too large for argmax");
  }
  // Every entry is written below, so a warm vector is only resized.
  if (argmax.size() != output.numel()) argmax.resize(output.numel());
  // H is even, so pairs of input rows never straddle two planes: the whole
  // tensor is batch*c*h/2 row pairs of ow windows each. The loop is
  // branch-free and stays scalar (at these widths, 2-8 windows per row
  // pair, a vectorised loop spends its time in prologues).
  const std::size_t row_pairs = batch * c * h / 2;
  const auto w32 = static_cast<std::uint32_t>(w);
  const float* in = input.data();
  float* out = output.data();
  std::uint32_t* index = argmax.data();
  for (std::size_t rp = 0; rp < row_pairs; ++rp) {
    const float* top = in + rp * 2 * w;
    const float* bottom = top + w;
    const auto row_base = static_cast<std::uint32_t>(rp * 2 * w);
    for (std::size_t ox = 0; ox < ow; ++ox) {
      // The first strictly greater candidate wins, in the order top-left,
      // top-right, bottom-left, bottom-right (NaN never wins a comparison).
      // The index selects are mask arithmetic: left as ?:, the compiler
      // may branch on real activations, which mispredicts.
      float best = top[2 * ox];
      std::uint32_t at = 0;
      const float c1 = top[2 * ox + 1], c2 = bottom[2 * ox],
                  c3 = bottom[2 * ox + 1];
      std::uint32_t take = 0u - static_cast<std::uint32_t>(c1 > best);
      at = (at & ~take) | (1u & take);
      best = c1 > best ? c1 : best;
      take = 0u - static_cast<std::uint32_t>(c2 > best);
      at = (at & ~take) | (w32 & take);
      best = c2 > best ? c2 : best;
      take = 0u - static_cast<std::uint32_t>(c3 > best);
      at = (at & ~take) | ((w32 + 1u) & take);
      best = c3 > best ? c3 : best;
      out[rp * ow + ox] = best;
      index[rp * ow + ox] = row_base + static_cast<std::uint32_t>(2 * ox) + at;
    }
  }
}

void maxpool2x2_backward(const Tensor& grad_output,
                         const std::vector<std::uint32_t>& argmax,
                         Tensor& grad_input) {
  if (grad_output.numel() != grad_input.numel() / 4 ||
      argmax.size() != grad_output.numel()) {
    throw std::invalid_argument("maxpool2x2_backward: shape mismatch");
  }
  kern::maxpool2x2_backward(argmax.size(), grad_output.data(), argmax.data(),
                            grad_input.numel(), grad_input.data());
}

void relu_forward(const Tensor& input, Tensor& output) {
  if (!input.same_shape(output)) throw std::invalid_argument("relu: shape mismatch");
  kern::relu(input.numel(), input.data(), output.data());
}

void relu_backward(const Tensor& mask, const Tensor& grad_output, Tensor& grad_input) {
  if (!mask.same_shape(grad_output) || !mask.same_shape(grad_input)) {
    throw std::invalid_argument("relu_backward: shape mismatch");
  }
  kern::relu_bwd(mask.numel(), mask.data(), grad_output.data(), grad_input.data());
}

void softmax(const Tensor& logits, Tensor& probs) {
  if (logits.rank() != 2 || !logits.same_shape(probs)) {
    throw std::invalid_argument("softmax: bad shapes");
  }
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  const float* in = logits.data();
  float* out = probs.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = in + i * n;
    float* prow = out + i * n;
    float maxv = row[0];
    for (std::size_t j = 1; j < n; ++j) maxv = std::max(maxv, row[j]);
    float total = 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      prow[j] = std::exp(row[j] - maxv);
      total += prow[j];
    }
    const float inv = 1.0f / total;
    for (std::size_t j = 0; j < n; ++j) prow[j] *= inv;
  }
}

double cross_entropy_loss(const Tensor& probs, std::span<const int> labels) {
  const std::size_t m = probs.dim(0), n = probs.dim(1);
  if (labels.size() != m) throw std::invalid_argument("cross_entropy: label count");
  double total = 0.0;
  const float* pd = probs.data();
  for (std::size_t i = 0; i < m; ++i) {
    const int label = labels[i];
    if (label < 0 || static_cast<std::size_t>(label) >= n) {
      throw std::out_of_range("cross_entropy: label out of range");
    }
    const double p = std::max<double>(pd[i * n + static_cast<std::size_t>(label)], 1e-12);
    total -= std::log(p);
  }
  return total / static_cast<double>(m);
}

void softmax_cross_entropy_backward(const Tensor& probs, std::span<const int> labels,
                                    Tensor& grad_logits) {
  const std::size_t m = probs.dim(0), n = probs.dim(1);
  if (!probs.same_shape(grad_logits)) {
    throw std::invalid_argument("softmax_xent_backward: shape mismatch");
  }
  const float inv_batch = 1.0f / static_cast<float>(m);
  const float* pd = probs.data();
  float* gd = grad_logits.data();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) gd[i * n + j] = pd[i * n + j] * inv_batch;
    gd[i * n + static_cast<std::size_t>(labels[i])] -= inv_batch;
  }
}

std::size_t count_correct(const Tensor& logits, std::span<const int> labels) {
  const std::size_t m = logits.dim(0), n = logits.dim(1);
  std::size_t correct = 0;
  const float* ld = logits.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = ld + i * n;
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (static_cast<int>(best) == labels[i]) ++correct;
  }
  return correct;
}

}  // namespace mach::tensor
