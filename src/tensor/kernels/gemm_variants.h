// The GEMM variant table behind kernels::gemm_nn / gemm_tn / gemm_nt,
// kernels::conv_forward / conv_backward / conv_relu_pool_forward and
// kernels::squared_norms (internal to the kernel layer and its tests).
//
// Each variant is one instantiation of the shared drivers in gemm_driver.h,
// compiled in its own translation unit with its own ISA flags:
//
//   gemm_baseline.cpp  plain x86-64 (SSE2)      -O3 -ffp-contract=off
//   gemm_avx2.cpp      -mavx2                   -O3 -ffp-contract=off
//   gemm_avx512.cpp    -mavx512f -mavx512vl     -O3 -ffp-contract=off
//
// gemm_dispatch.cpp picks the widest variant the CPU supports, once, via
// common::host_gemm_isa(). All variants keep the summation order kernels.h
// specifies, so they are bitwise interchangeable.
#pragma once

#include <cstddef>
#include <vector>

#include "common/cpu_isa.h"
#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels::detail {

/// Register tile and cache blocks of the gemm_nn / gemm_tn / conv_forward
/// driver: an mr x nr micro-kernel tile over kc x nc packed B panels and
/// mc x kc packed A blocks.
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
  void (*conv_forward)(const float* images, std::size_t count,
                       const ConvShape& shape, ConstMat weight,
                       const float* bias, float* out, PackBuffers buffers);
  // conv_forward without im2col, for the shapes direct_conv() accepts: the
  // buffers hold the transposed weights (a: patch * out_c floats) and one
  // zero-padded image (b: padded_image_floats(shape)).
  void (*conv_forward_direct)(const float* images, std::size_t count,
                              const ConvShape& shape, ConstMat weight,
                              const float* bias, float* out,
                              PackBuffers buffers);
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
  // The B-panel builder of conv_forward run over the whole image: writes
  // the [channels*kernel*kernel, out_h*out_w] im2col matrix.
  void (*im2col)(const float* image, const ConvShape& shape, float* cols);
  // kernels::squared_norms (lanes in [1, kMaxNormLanes]; any n).
  void (*squared_norms)(std::size_t lanes, std::size_t n, const float* x,
                        std::size_t stride, double* out);
};

/// Whether gemm_nn / gemm_tn run unpacked: B (k x n) fits in L1 with room
/// for the A rows and C tile being streamed. A shape rule only, so a call's
/// path never depends on anything but its dimensions.
constexpr std::size_t kUnpackedMaxB = 8192;  // floats (32 KiB)
constexpr bool unpacked_gemm(std::size_t k, std::size_t n) {
  return k * n <= kUnpackedMaxB;
}

/// Whether conv_forward runs direct (no im2col, output channels in vector
/// lanes): out_c fills whole vectors and there are at least 16 of them.
/// Eight-channel layers keep the packed GEMM, which is faster there. A shape
/// rule only, like unpacked_gemm().
constexpr bool direct_conv(std::size_t out_channels, std::size_t lanes) {
  return out_channels % lanes == 0 && out_channels >= 16;
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
void conv_relu_pool_forward(const GemmVariant& variant, const float* images,
                            std::size_t count, const ConvShape& shape,
                            ConstMat weight, const float* bias, float* pooled,
                            std::uint8_t* codes, float* scratch);
void im2col(const GemmVariant& variant, const float* image,
            const ConvShape& shape, float* cols);

}  // namespace mach::tensor::kernels::detail
