// Runtime dispatch over the GEMM variants (gemm_variants.h).
//
// The variant is chosen once per process from cpuid (common::host_gemm_isa)
// and every call goes through one function pointer. This TU is compiled for
// the baseline ISA and owns everything the ISA TUs must not contain: the
// degenerate-shape handling, the thread-local pack buffers (grown on first
// use per thread, then reused, so steady-state GEMM and conv_forward calls
// perform zero heap allocations), the packed-or-unpacked shape rule of
// gemm_nn / gemm_tn, the convolutions' scratch sizes, and the choice itself.
#include <algorithm>
#include <vector>

#include "tensor/kernels/conv_geometry.h"
#include "tensor/kernels/gemm_variants.h"

namespace mach::tensor::kernels {

namespace detail {

namespace {

constexpr const GemmVariant* kCompiled[] = {
    &kBaselineVariant,
#if defined(__x86_64__)
    &kAvx2Variant,
    &kAvx512Variant,
#endif
};

struct ThreadPackBuffers {
  std::vector<float> a;
  std::vector<float> b;
};

ThreadPackBuffers& tls_buffers() {
  thread_local ThreadPackBuffers buffers;
  return buffers;
}

float* ensure(std::vector<float>& buf, std::size_t count) {
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

/// Pack buffers for an m x n x k gemm_nn/gemm_tn call, sized to
/// the blocks this call actually packs rather than the full MC x KC and
/// KC x NC. At the paper's layer sizes that keeps every buffer well under
/// glibc's mmap threshold: a 256 KiB per-thread buffer is mmapped, its
/// release at thread exit raises the allocator's dynamic mmap threshold,
/// and later allocations then fragment the per-thread arenas (peak RSS rose
/// by ~20% on the 4-thread MNIST benchmark before this sizing).
PackBuffers panel_buffers(const GemmVariant& v, std::size_t m, std::size_t n,
                          std::size_t k) {
  ThreadPackBuffers& t = tls_buffers();
  const std::size_t kc = std::min(v.nn.kc, k);
  return {ensure(t.a, std::min(v.nn.mc, round_up(m, v.nn.mr)) * kc),
          ensure(t.b, kc * std::min(v.nn.nc, round_up(n, v.nn.nr)))};
}

/// C = (accumulate ? C : 0), then the optional biases, for k == 0.
void empty_product(Mat c, bool accumulate, const float* bias_row,
                   const float* bias_col) {
  const std::size_t m = c.rows, n = c.cols;
  if (!accumulate) std::fill_n(c.data, m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data + i * n;
    if (bias_row != nullptr) {
      for (std::size_t j = 0; j < n; ++j) crow[j] += bias_row[i];
    }
    if (bias_col != nullptr) {
      for (std::size_t j = 0; j < n; ++j) crow[j] += bias_col[j];
    }
  }
}

}  // namespace

std::vector<const GemmVariant*> host_variants() {
  const common::GemmIsa host = common::host_gemm_isa();
  std::vector<const GemmVariant*> out;
  for (const GemmVariant* v : kCompiled) {
    if (v->isa <= host) out.push_back(v);
  }
  return out;
}

const GemmVariant& active_variant() {
  static const GemmVariant& chosen = *host_variants().back();
  return chosen;
}

void gemm_nn(const GemmVariant& variant, ConstMat a, ConstMat b, Mat c,
             bool accumulate, const float* bias_row, const float* bias_col) {
  if (c.rows == 0 || c.cols == 0) return;
  if (a.cols == 0) {
    empty_product(c, accumulate, bias_row, bias_col);
    return;
  }
  if (unpacked_gemm(a.cols, c.cols)) {
    variant.gemm_nn_unpacked(a, b, c, accumulate, bias_row, bias_col);
    return;
  }
  variant.gemm_nn(a, b, c, accumulate, bias_row, bias_col,
                  panel_buffers(variant, c.rows, c.cols, a.cols));
}

void gemm_tn(const GemmVariant& variant, ConstMat a, ConstMat b, Mat c,
             bool accumulate) {
  if (c.rows == 0 || c.cols == 0) return;
  if (a.rows == 0) {
    empty_product(c, accumulate, nullptr, nullptr);
    return;
  }
  if (unpacked_gemm(a.rows, c.cols)) {
    variant.gemm_tn_unpacked(a, b, c, accumulate);
    return;
  }
  variant.gemm_tn(a, b, c, accumulate,
                  panel_buffers(variant, c.rows, c.cols, a.rows));
}

void gemm_nt(const GemmVariant& variant, ConstMat a, ConstMat b, Mat c,
             bool accumulate) {
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (std::size_t i = 0; i < m * n; ++i) {
      const float base = accumulate ? c.data[i] : 0.0f;
      c.data[i] = base + 0.0f;
    }
    return;
  }
  float* apack = ensure(tls_buffers().a, round_up(m, variant.nt.mr) * k);
  variant.gemm_nt(a, b, c, accumulate, {apack, nullptr});
}

void squared_norms(const GemmVariant& variant, std::size_t lanes,
                   std::size_t n, const float* x, std::size_t stride,
                   double* out) {
  for (std::size_t first = 0; first < lanes; first += kMaxNormLanes) {
    variant.squared_norms(std::min(kMaxNormLanes, lanes - first), n,
                          x + first * stride, stride, out + first);
  }
}

namespace {

std::size_t conv_pixels(const ConvShape& shape) {
  return conv_out_extent(shape.height, shape) *
         conv_out_extent(shape.width, shape);
}

/// Scratch floats of conv_forward (pooled = false) or
/// conv_relu_pool_forward (pooled = true): one block's padded lane planes,
/// then its conv-output lanes, or its pooled and code lanes (a quarter of
/// the pixels each). It does not depend on the image count.
std::size_t forward_scratch(const GemmVariant& variant, const ConvShape& shape,
                            std::size_t out_channels, bool pooled) {
  const std::size_t pixels = conv_pixels(shape);
  return (padded_image_floats(shape) +
          out_channels * (pooled ? pixels / 2 : pixels)) *
         variant.lanes;
}

}  // namespace

void conv_forward(const GemmVariant& variant, const float* images,
                  std::size_t count, const ConvShape& shape, ConstMat weight,
                  const float* bias, float* out) {
  if (count == 0 || weight.rows * conv_pixels(shape) == 0) return;
  const std::size_t floats =
      forward_scratch(variant, shape, weight.rows, /*pooled=*/false);
  variant.conv_forward(images, count, shape, weight, bias, out,
                       ensure(tls_buffers().a, floats));
}

std::size_t conv_backward_scratch(const GemmVariant& variant,
                                  std::size_t count, const ConvShape& shape,
                                  std::size_t out_channels, bool input_grad) {
  if (count == 0 || out_channels == 0 || shape.channels * shape.kernel == 0) {
    return 0;
  }
  return variant.conv_backward_scratch(shape, out_channels, input_grad);
}

void conv_backward(const GemmVariant& variant, const float* images,
                   std::size_t count, const ConvShape& shape, ConstMat weight,
                   const float* grad_out, float* grad_images,
                   float* grad_weight, float* grad_bias, float* scratch) {
  const std::size_t image_size = shape.channels * shape.height * shape.width;
  const std::size_t out_c = weight.rows, patch = weight.cols;
  if (count == 0 || out_c == 0 || patch == 0) {
    // No image, output channel or tap contributes: every gradient is zero.
    std::fill_n(grad_weight, out_c * patch, 0.0f);
    std::fill_n(grad_bias, out_c, 0.0f);
    if (grad_images != nullptr) {
      std::fill_n(grad_images, count * image_size, 0.0f);
    }
    return;
  }
  variant.conv_backward(images, count, shape, weight, grad_out, grad_images,
                        grad_weight, grad_bias, scratch);
}

std::size_t conv_relu_pool_scratch(const GemmVariant& variant,
                                   std::size_t count, const ConvShape& shape,
                                   std::size_t out_channels) {
  if (count == 0 || out_channels * conv_pixels(shape) == 0) return 0;
  return forward_scratch(variant, shape, out_channels, true);
}

void conv_relu_pool_forward(const GemmVariant& variant, const float* images,
                            std::size_t count, const ConvShape& shape,
                            ConstMat weight, const float* bias, float* pooled,
                            std::uint8_t* codes, float* scratch) {
  if (count == 0 || weight.rows * conv_pixels(shape) == 0) return;
  variant.conv_relu_pool_forward(images, count, shape, weight, bias, pooled,
                                 codes, scratch);
}

}  // namespace detail

void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate,
             const float* bias_row, const float* bias_col) {
  detail::gemm_nn(detail::active_variant(), a, b, c, accumulate, bias_row,
                  bias_col);
}

void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate) {
  detail::gemm_tn(detail::active_variant(), a, b, c, accumulate);
}

void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate) {
  detail::gemm_nt(detail::active_variant(), a, b, c, accumulate);
}

void squared_norms(std::size_t lanes, std::size_t n, const float* x,
                   std::size_t stride, double* out) {
  detail::squared_norms(detail::active_variant(), lanes, n, x, stride, out);
}

void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* cols) {
  ref::im2col(image, channels, height, width, kernel, pad, stride, cols);
}

void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* grad_image) {
  ref::col2im(cols, channels, height, width, kernel, pad, stride, grad_image);
}

void conv_forward(const float* images, std::size_t count,
                  const ConvShape& shape, ConstMat weight, const float* bias,
                  float* out) {
  detail::conv_forward(detail::active_variant(), images, count, shape, weight,
                       bias, out);
}

std::size_t conv_backward_scratch(std::size_t count, const ConvShape& shape,
                                  std::size_t out_channels, bool input_grad) {
  return detail::conv_backward_scratch(detail::active_variant(), count, shape,
                                       out_channels, input_grad);
}

void conv_backward(const float* images, std::size_t count,
                   const ConvShape& shape, ConstMat weight,
                   const float* grad_out, float* grad_images,
                   float* grad_weight, float* grad_bias, float* scratch) {
  detail::conv_backward(detail::active_variant(), images, count, shape, weight,
                        grad_out, grad_images, grad_weight, grad_bias,
                        scratch);
}

std::size_t conv_relu_pool_scratch(std::size_t count, const ConvShape& shape,
                                   std::size_t out_channels) {
  return detail::conv_relu_pool_scratch(detail::active_variant(), count, shape,
                                        out_channels);
}

void conv_relu_pool_forward(const float* images, std::size_t count,
                            const ConvShape& shape, ConstMat weight,
                            const float* bias, float* pooled,
                            std::uint8_t* codes, float* scratch) {
  detail::conv_relu_pool_forward(detail::active_variant(), images, count,
                                 shape, weight, bias, pooled, codes, scratch);
}

}  // namespace mach::tensor::kernels
