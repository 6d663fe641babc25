// Reference kernels: the seed's naive loops, retained verbatim (modulo the
// raw-pointer view interface). They define the summation-order contract the
// blocked kernels must reproduce bitwise, and they are the baseline the
// kernels microbench reports speedups against. Do not "optimise" this file —
// its value is being the simple, obviously-correct yardstick.
#include "tensor/kernels/kernels.h"

#include <cstdint>

namespace mach::tensor::kernels::ref {

void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate,
             const float* bias_row, const float* bias_col) {
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  if (!accumulate) {
    for (std::size_t i = 0; i < m * n; ++i) c.data[i] = 0.0f;
  }
  // ikj loop order: streams B and C rows, keeps a[i*k+p] in register.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float aval = a.data[i * k + p];
      if (aval == 0.0f) continue;
      const float* brow = b.data + p * n;
      float* crow = c.data + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
  if (bias_row != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c.data + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += bias_row[i];
    }
  }
  if (bias_col != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c.data + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += bias_col[j];
    }
  }
}

void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate) {
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  if (!accumulate) {
    for (std::size_t i = 0; i < m * n; ++i) c.data[i] = 0.0f;
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data + p * m;
    const float* brow = b.data + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aval = arow[i];
      if (aval == 0.0f) continue;
      float* crow = c.data + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate) {
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  if (!accumulate) {
    for (std::size_t i = 0; i < m * n; ++i) c.data[i] = 0.0f;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data + i * k;
    float* crow = c.data + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* cols) {
  const std::size_t oh = (height + 2 * pad - kernel) / stride + 1;
  const std::size_t ow = (width + 2 * pad - kernel) / stride + 1;
  const std::size_t ncols = oh * ow;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        float* dst = cols + ((ch * kernel + ky) * kernel + kx) * ncols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            float value = 0.0f;
            if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(height) && ix >= 0 &&
                ix < static_cast<std::ptrdiff_t>(width)) {
              value = image[(ch * height + static_cast<std::size_t>(iy)) * width +
                            static_cast<std::size_t>(ix)];
            }
            dst[oy * ow + ox] = value;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* grad_image) {
  const std::size_t oh = (height + 2 * pad - kernel) / stride + 1;
  const std::size_t ow = (width + 2 * pad - kernel) / stride + 1;
  const std::size_t ncols = oh * ow;
  for (std::size_t ch = 0; ch < channels; ++ch) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const float* src = cols + ((ch * kernel + ky) * kernel + kx) * ncols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) continue;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(width)) continue;
            grad_image[(ch * height + static_cast<std::size_t>(iy)) * width +
                       static_cast<std::size_t>(ix)] += src[oy * ow + ox];
          }
        }
      }
    }
  }
}

void maxpool2x2_forward(const float* input, std::size_t planes,
                        std::size_t height, std::size_t width, float* output,
                        std::uint32_t* argmax) {
  const std::size_t oh = height / 2, ow = width / 2;
  std::size_t oidx = 0;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    const float* plane = input + pl * height * width;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t base = (2 * oy) * width + 2 * ox;
        float best = plane[base];
        std::uint32_t best_idx = static_cast<std::uint32_t>(base);
        const std::size_t candidates[3] = {base + 1, base + width,
                                           base + width + 1};
        for (std::size_t cand : candidates) {
          if (plane[cand] > best) {
            best = plane[cand];
            best_idx = static_cast<std::uint32_t>(cand);
          }
        }
        output[oidx] = best;
        argmax[oidx] = best_idx;
        ++oidx;
      }
    }
  }
}

void maxpool2x2_backward(const float* grad_output, const std::uint32_t* argmax,
                         std::size_t planes, std::size_t height,
                         std::size_t width, float* grad_input) {
  const std::size_t outputs = (height / 2) * (width / 2);
  for (std::size_t i = 0; i < planes * height * width; ++i) grad_input[i] = 0.0f;
  std::size_t oidx = 0;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    float* plane = grad_input + pl * height * width;
    for (std::size_t i = 0; i < outputs; ++i, ++oidx) {
      plane[argmax[oidx]] += grad_output[oidx];
    }
  }
}

}  // namespace mach::tensor::kernels::ref
