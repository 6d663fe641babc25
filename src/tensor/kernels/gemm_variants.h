// The GEMM variant table behind kernels::gemm_nn / gemm_tn / gemm_nt,
// kernels::conv_forward / conv_relu_pool_forward / conv_backward (a block
// of `lanes` images in the vector lanes), kernels::squared_norms, and the
// lane-independent elementwise, optimiser and int8 loops (internal to the
// kernel layer, the int8 codec's per-variant entry points, their tests and
// bench/kernels).
//
// Each variant is one instantiation of the shared drivers in gemm_driver.h
// and the loops in vector_loops.h, compiled in its own translation unit
// with its own ISA flags:
//
//   gemm_baseline.cpp  plain x86-64 (SSE2)          -O3 -ffp-contract=off
//   gemm_avx2.cpp      -mavx2 -mfma                 -O3 -ffp-contract=off
//   gemm_avx512.cpp    -mavx512f -mavx512vl -mfma   -O3 -ffp-contract=off
//
// gemm_dispatch.cpp picks the widest variant the CPU supports, once, via
// common::host_gemm_isa(). All variants keep the summation order kernels.h
// specifies, with each GEMM and convolution chain step one fused
// multiply-add (an FMA instruction on avx2 and avx512, libm's fmaf lane by
// lane on the baseline), so they are bitwise interchangeable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cpu_isa.h"
#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels::detail {

/// Register tile and cache blocks of the gemm_nn / gemm_tn driver: an
/// mr x nr micro-kernel tile over kc x nc packed B panels and mc x kc
/// packed A blocks.
struct Blocking {
  std::size_t mr, nr, kc, mc, nc;
};

/// gemm_nt computes C transposed in registers: each tile covers mr rows of
/// C held in vector lanes (A packed in mr-row strips over the full k) and
/// nr columns whose B rows are broadcast straight from memory, so B needs
/// no transposed packing. A variant may also have a narrow tile (narrow_mr
/// rows of half-width vectors x narrow_nr columns) that it uses whenever
/// m <= narrow_mr; both are zero when it has none.
struct NtBlocking {
  std::size_t mr, nr, narrow_mr, narrow_nr;
};

/// Caller-owned pack buffers. The ISA translation units never allocate:
/// library code instantiated under wider ISA flags (std::vector growth, for
/// one) could be picked by the linker for the whole program.
struct PackBuffers {
  float* a;
  float* b;
};

struct GemmVariant {
  common::GemmIsa isa;  // common::gemm_isa_name(isa) names the variant
  std::size_t lanes;    // floats per vector register
  Blocking nn;
  NtBlocking nt;
  // Preconditions (the dispatcher handles everything else): m, n, k > 0 and
  // the pack buffers hold mc * kc (a) and kc * nc (b) floats of the nn
  // blocking, or round_up(m, nt.mr) * k (a) for gemm_nt.
  void (*gemm_nn)(ConstMat a, ConstMat b, Mat c, bool accumulate,
                  const float* bias_row, const float* bias_col,
                  PackBuffers buffers);
  void (*gemm_tn)(ConstMat a, ConstMat b, Mat c, bool accumulate,
                  PackBuffers buffers);
  void (*gemm_nt)(ConstMat a, ConstMat b, Mat c, bool accumulate,
                  PackBuffers buffers);
  // gemm_nn / gemm_tn without packing: A broadcast and B read in place,
  // for the shapes unpacked_gemm() accepts (same preconditions otherwise).
  void (*gemm_nn_unpacked)(ConstMat a, ConstMat b, Mat c, bool accumulate,
                           const float* bias_row, const float* bias_col);
  void (*gemm_tn_unpacked)(ConstMat a, ConstMat b, Mat c, bool accumulate);
  // conv_forward / conv_relu_pool_forward over a minibatch, in blocks of
  // `lanes` images (preconditions: count, out_c and output pixels > 0; the
  // scratch holds one block's padded lane planes, then its conv-output
  // lanes, or its pooled and code lanes; the dispatcher sizes it).
  void (*conv_forward)(const float* images, std::size_t count,
                       const ConvShape& shape, ConstMat weight,
                       const float* bias, float* out, float* scratch);
  void (*conv_relu_pool_forward)(const float* images, std::size_t count,
                                 const ConvShape& shape, ConstMat weight,
                                 const float* bias, float* pooled,
                                 std::uint8_t* codes, float* scratch);
  // conv_backward over a minibatch, in blocks of `lanes` images: its
  // scratch size in floats (one block's, whatever the count), and the
  // kernel (preconditions: count, out_c, patch and output pixels > 0).
  std::size_t (*conv_backward_scratch)(const ConvShape& shape,
                                       std::size_t out_channels,
                                       bool input_grad);
  void (*conv_backward)(const float* images, std::size_t count,
                        const ConvShape& shape, ConstMat weight,
                        const float* grad_out, float* grad_images,
                        float* grad_weight, float* grad_bias, float* scratch);
  // kernels::squared_norms (lanes in [1, kMaxNormLanes]; any n).
  void (*squared_norms)(std::size_t lanes, std::size_t n, const float* x,
                        std::size_t stride, double* out);
  // The lane-independent loops (vector_loops.h), each the kernels.h
  // function of the same name at this variant's width (any n, m).
  void (*relu)(std::size_t n, const float* x, float* y);
  void (*relu_bwd)(std::size_t n, const float* x, const float* gy, float* gx);
  void (*axpy)(std::size_t n, float alpha, const float* x, float* y);
  void (*axpy_delta)(std::size_t n, float alpha, const float* x,
                     const float* base, float* y);
  void (*scale)(std::size_t n, float alpha, float* x);
  void (*scale_copy)(std::size_t n, float alpha, const float* x, float* y);
  void (*vadd)(std::size_t n, const float* x, float* y);
  void (*add_bias_rows)(std::size_t m, std::size_t n, const float* bias,
                        float* x);
  void (*col_sums)(std::size_t m, std::size_t n, const float* x, float* out,
                   bool accumulate);
  void (*sgd_step)(std::size_t n, float lr, float weight_decay,
                   const float* grad, float* value);
  void (*sgd_momentum_step)(std::size_t n, float lr, float momentum,
                            float weight_decay, const float* grad,
                            float* velocity, float* value);
  float (*int8_max_abs)(std::size_t n, const float* x);
  void (*int8_quantise)(std::size_t n, const float* x, float inv_scale,
                        std::uint8_t* q);
  void (*int8_dequantise)(std::size_t n, const std::uint8_t* q, float scale,
                          float* out);
};

/// Whether gemm_nn / gemm_tn run unpacked: B (k x n) fits in L1 with room
/// for the A rows and C tile being streamed. A shape rule only, so a call's
/// path never depends on anything but its dimensions.
constexpr std::size_t kUnpackedMaxB = 8192;  // floats (32 KiB)
constexpr bool unpacked_gemm(std::size_t k, std::size_t n) {
  return k * n <= kUnpackedMaxB;
}

/// Floats of one image's planes with `pad` zeros on every side.
constexpr std::size_t padded_image_floats(const ConvShape& s) {
  return s.channels * (s.height + 2 * s.pad) * (s.width + 2 * s.pad);
}

extern const GemmVariant kBaselineVariant;
#if defined(__x86_64__)
extern const GemmVariant kAvx2Variant;
extern const GemmVariant kAvx512Variant;
#endif

/// The compiled variants this CPU can execute, narrowest first.
std::vector<const GemmVariant*> host_variants();
/// The variant the public kernels run: the widest one the CPU supports.
const GemmVariant& active_variant();

// Variant-explicit entry points. They handle the degenerate shapes, size
// the calling thread's pack buffers and call into the variant; the public
// kernels are these with active_variant().
void gemm_nn(const GemmVariant& variant, ConstMat a, ConstMat b, Mat c,
             bool accumulate = false, const float* bias_row = nullptr,
             const float* bias_col = nullptr);
void gemm_tn(const GemmVariant& variant, ConstMat a, ConstMat b, Mat c,
             bool accumulate = false);
void gemm_nt(const GemmVariant& variant, ConstMat a, ConstMat b, Mat c,
             bool accumulate = false);
void squared_norms(const GemmVariant& variant, std::size_t lanes,
                   std::size_t n, const float* x, std::size_t stride,
                   double* out);
void conv_forward(const GemmVariant& variant, const float* images,
                  std::size_t count, const ConvShape& shape, ConstMat weight,
                  const float* bias, float* out);
std::size_t conv_backward_scratch(const GemmVariant& variant,
                                  std::size_t count, const ConvShape& shape,
                                  std::size_t out_channels, bool input_grad);
void conv_backward(const GemmVariant& variant, const float* images,
                   std::size_t count, const ConvShape& shape, ConstMat weight,
                   const float* grad_out, float* grad_images,
                   float* grad_weight, float* grad_bias, float* scratch);
std::size_t conv_relu_pool_scratch(const GemmVariant& variant,
                                   std::size_t count, const ConvShape& shape,
                                   std::size_t out_channels);
void conv_relu_pool_forward(const GemmVariant& variant, const float* images,
                            std::size_t count, const ConvShape& shape,
                            ConstMat weight, const float* bias, float* pooled,
                            std::uint8_t* codes, float* scratch);

}  // namespace mach::tensor::kernels::detail
