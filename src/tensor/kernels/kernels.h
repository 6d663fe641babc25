// Cache-blocked, vectorizable math kernels behind the tensor ops.
//
// Everything here works on raw float buffers (or the lightweight 2-D views
// below) so the nn/ hot path can run GEMMs directly over weight/activation
// storage without materialising intermediate Tensors. Two implementations
// coexist:
//
//   * kernels::*       — the production kernels: register-blocked micro-kernel
//                        GEMMs over packed A/B panels (or, for a B that fits
//                        in L1, over A and B in place), convolutions with a
//                        minibatch's images in the vector lanes, branch-free
//                        elementwise loops the compiler auto-vectorises, fused
//                        bias-add epilogues for the forward paths. The GEMMs,
//                        the convolutions and the lane norms come in one
//                        variant per instruction set (baseline x86-64, AVX2,
//                        AVX-512), picked once per process from cpuid;
//                        gemm_variants.h holds the table and its blocking.
//   * kernels::ref::*  — the retained reference kernels (the seed's naive
//                        loops). They define the summation-order contract and
//                        serve as the equivalence-test and microbench baseline.
//
// Determinism contract (relied on by the parallel runtime's bitwise
// equality across worker counts): every kernel is single-threaded and uses a
// FIXED summation order identical to the reference kernel's order —
//   * gemm_nn / gemm_tn: C[i,j] accumulates its k contributions in increasing
//     p order directly into the output accumulator (cache blocking only
//     spills/reloads the exact partial value, which is lossless);
//   * gemm_nt: a fresh accumulator per element sums k products in increasing
//     p order and is added to C once at the end (dot-product form);
//   * reductions (dot, squared_norm, column and bias sums): strict element
//     order.
// Because the order is fixed and float mul/add are exactly rounded, every
// GEMM variant and the reference kernels produce bitwise-identical results,
// at any thread count and on any CPU, provided FMA contraction is disabled
// (see the build flags: the kernel TUs are compiled with -ffp-contract=off).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mach::tensor::kernels {

// ---------------------------------------------------------------------------
// Lightweight non-owning 2-D views. Row-major and fully packed (leading
// dimension == cols), which every caller in this codebase satisfies: weight
// and activation buffers are contiguous, and per-image slices of NCHW
// tensors are contiguous [channels, h*w] planes.
// ---------------------------------------------------------------------------
struct ConstMat {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

struct Mat {
  float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  operator ConstMat() const noexcept { return {data, rows, cols}; }
};

// ---------------------------------------------------------------------------
// GEMM. Shapes (rows x cols of the stored views):
//   gemm_nn: C[m,n] (+)= A[m,k]  · B[k,n]
//   gemm_tn: C[m,n] (+)= A[k,m]ᵀ · B[k,n]
//   gemm_nt: C[m,n] (+)= A[m,k]  · B[n,k]ᵀ
// With accumulate=false C is fully overwritten (no pre-zeroing needed).
// gemm_nn optionally fuses a bias epilogue applied once after the final
// k-contribution: bias_row[i] is added to every element of row i (conv
// forward, bias per output channel), bias_col[j] to every element of column
// j (dense forward, bias per output feature). Both default to nullptr.
// ---------------------------------------------------------------------------
void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate = false,
             const float* bias_row = nullptr, const float* bias_col = nullptr);
void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate = false);
void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate = false);

// ---------------------------------------------------------------------------
// im2col / col2im on one NCHW image plane (square kernel, symmetric zero
// padding). `image` points at [channels, height, width]; `cols` holds
// [channels*kernel*kernel, out_h*out_w]. No production path runs either
// (the convolutions below read their inputs from zero-padded lane planes),
// so both are the reference loops: ref::im2col and ref::col2im.
// ---------------------------------------------------------------------------
void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* cols);
/// Adjoint of im2col: accumulates columns back into the image gradient
/// (which must be pre-zeroed by the caller, matching the reference).
void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* grad_image);

// ---------------------------------------------------------------------------
// Convolution forward over `count` consecutive NCHW images: weight is
// [out_c, patch] with patch = channels*kernel*kernel, and out holds `count`
// consecutive [out_c, out_h*out_w] planes with
//   out[o, q] = (sum_p weight[o, p] * im2col(image)[p, q]) + bias[o]
// — exactly the float chains of im2col followed by gemm_nn with a fused
// bias_row (+0, then each product in increasing p, then the bias), but no
// column buffer is written or read. The images run in blocks of one
// vector's lane count (16 on AVX-512; a partial block costs a whole one),
// image l of a block in lane l: each block's images go into zero-padded
// lane planes, and a register tile of output channels x 2 rows x 2 pixels
// (per variant) sums every image's chains side by side, each weight
// broadcast to all lanes. The block's output lanes go to NCHW through
// in-register transposes. Any kernel, pad, stride and extent. Scratch is
// the calling thread's pack buffer (one block's planes and output lanes).
// bias may be nullptr.
// ---------------------------------------------------------------------------
struct ConvShape {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t kernel = 0;
  std::size_t pad = 0;
  std::size_t stride = 1;
};

void conv_forward(const float* images, std::size_t count,
                  const ConvShape& shape, ConstMat weight, const float* bias,
                  float* out);

// ---------------------------------------------------------------------------
// Convolution backward over the same `count` images, given grad_out (count
// [out_c, out_h*out_w] planes). Overwrites
//   grad_weight[o, p] = sum over images of (sum_q grad_out[o, q] * cols[p, q])
//   grad_bias[o]      = sum over images of (sum_q grad_out[o, q])
//   grad_images       = col2im(weightᵀ · grad_out) per image
// with exactly the float chains of the per-image composition im2col,
// gemm_nt(accumulate), gemm_tn, col2im and per-row bias sums into zero-filled
// gradients: each image's sums start from fresh accumulators in increasing q
// and are added in image order. The images run in blocks of one vector's
// lane count (16 on AVX-512; a partial block costs a whole one), image l of
// a block in lane l, so no im2col matrix, column gradient or col2im pass
// exists: dW reads its inputs from zero-padded lane planes, and dX adds, per
// input pixel, the chains of the taps that reach an output pixel.
// grad_images may be nullptr, which skips the input gradient (a first
// layer's, which nothing reads); grad_weight and grad_bias come out the same
// either way. `scratch` is caller-owned and holds
// conv_backward_scratch(count, shape, out_c, grad_images != nullptr) floats:
// one block's output gradients and padded input planes in lanes (the
// block's dX lanes use the planes' span first) and, with the input gradient,
// the weights as [tap][o][c]. It does not grow with count (0 when count is
// 0).
// ---------------------------------------------------------------------------
std::size_t conv_backward_scratch(std::size_t count, const ConvShape& shape,
                                  std::size_t out_channels, bool input_grad);
void conv_backward(const float* images, std::size_t count,
                   const ConvShape& shape, ConstMat weight,
                   const float* grad_out, float* grad_images,
                   float* grad_weight, float* grad_bias, float* scratch);

// ---------------------------------------------------------------------------
// One conv stage of the paper's CNNs in one pass: conv_forward, ReLU and 2x2
// max pooling (stride 2) over `count` images whose conv output has even
// height and width. conv_forward's tiles hold whole 2x2 windows, so the
// ReLU and the pool run on the registers and the conv output is never
// stored. pooled holds count [out_c, out_h/2, out_w/2] planes and codes one
// byte per window, laid out like pooled. Bit for bit what conv_forward,
// relu() and ref::maxpool2x2_forward leave, with the winner stored as a
// code (0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right) instead of
// a flat index:
//   * every candidate first becomes r = x > 0 ? x : +0, so r is never NaN
//     or -0 and equal values have equal bits;
//   * the pooled value P is the largest r, and the code the first position
//     (in the order above) whose r equals P, which is the pool's "first
//     strictly greater candidate wins".
// `scratch` holds conv_relu_pool_scratch(count, shape, out_c) floats: one
// block's padded lane planes and its pooled and code lanes. It does not
// grow with count (0 when count is 0).
// ---------------------------------------------------------------------------
std::size_t conv_relu_pool_scratch(std::size_t count, const ConvShape& shape,
                                   std::size_t out_channels);
void conv_relu_pool_forward(const float* images, std::size_t count,
                            const ConvShape& shape, ConstMat weight,
                            const float* bias, float* pooled,
                            std::uint8_t* codes, float* scratch);

/// The gradient conv_relu_pool_forward's conv output gets, over `row_pairs`
/// pairs of conv-output rows of `width` (even) floats (an NCHW tensor of
/// even height is planes * height / 2 row pairs): +0 everywhere except at
/// each window's code position, which holds P > 0 ? 0.0f + g : +0 —
/// exactly what ref::maxpool2x2_backward and then relu_bwd (masked on the
/// ReLU output) leave. Every cell is written once, two windows' four cells
/// of a row per SSE2 store (no zero fill, no scatter).
void relu_maxpool2x2_backward(std::size_t row_pairs, std::size_t width,
                              const float* pooled, const std::uint8_t* codes,
                              const float* grad_pooled, float* grad_x);

// ---------------------------------------------------------------------------
// Elementwise kernels (branch-free, auto-vectorizable; exact per-element
// semantics match the naive loops they replaced).
// ---------------------------------------------------------------------------
void relu(std::size_t n, const float* x, float* y);
/// gx[i] = x[i] > 0 ? gy[i] : 0 (gy is read unconditionally, so the loop
/// if-converts to a blend instead of a data-dependent branch).
void relu_bwd(std::size_t n, const float* x, const float* gy, float* gx);
/// y[i] += alpha * x[i]
void axpy(std::size_t n, float alpha, const float* x, float* y);
/// y[i] += alpha * (x[i] - base[i])  (HT update-form aggregation)
void axpy_delta(std::size_t n, float alpha, const float* x, const float* base,
                float* y);
/// x[i] *= alpha
void scale(std::size_t n, float alpha, float* x);
/// y[i] = alpha * x[i]
void scale_copy(std::size_t n, float alpha, const float* x, float* y);
/// y[i] += x[i]
void vadd(std::size_t n, const float* x, float* y);
/// x[i,j] += bias[j] for every row i of x[m,n].
void add_bias_rows(std::size_t m, std::size_t n, const float* bias, float* x);
/// out[j] (+)= sum_i x[i,j]; rows accumulated in increasing i order.
void col_sums(std::size_t m, std::size_t n, const float* x, float* out,
              bool accumulate);
/// Max-pool backward: gx = 0, then gx[argmax[i]] = 0.0f + gy[i]. Each
/// input cell lies in at most one window, so this equals the zero fill plus
/// scatter-add.
void maxpool2x2_backward(std::size_t outputs, const float* gy,
                         const std::uint32_t* argmax, std::size_t inputs,
                         float* gx);

// ---------------------------------------------------------------------------
// Reductions. Double accumulators in strict element order — the fixed order
// is what keeps gradient-norm observables identical at any thread count, so
// each sum stays one serial chain (documented in DESIGN.md §9). What can run
// side by side is several independent chains: squared_norms evaluates up to
// kMaxNormLanes vectors at once, one chain per double vector lane, so every
// result is bitwise squared_norm's.
// ---------------------------------------------------------------------------
double dot(std::size_t n, const float* x, const float* y);
double squared_norm(std::size_t n, const float* x);

/// Vectors one squared_norms call evaluates together (more lanes run in
/// groups of this many).
inline constexpr std::size_t kMaxNormLanes = 8;
/// out[l] = squared_norm(n, x + l * stride) for l < lanes, bit for bit.
/// Each vector's chain runs in its own vector lane (8x8 transposes and
/// cvtps2pd on AVX-512, two 4-lane chains on AVX2, four 2-lane ones on
/// SSE2), dispatched per GEMM variant like the GEMMs.
void squared_norms(std::size_t lanes, std::size_t n, const float* x,
                   std::size_t stride, double* out);

// ---------------------------------------------------------------------------
// Fused optimiser update steps (per-element math identical to the loops
// they replaced in nn::Sgd).
// ---------------------------------------------------------------------------
void sgd_step(std::size_t n, float lr, float weight_decay, const float* grad,
              float* value);
void sgd_momentum_step(std::size_t n, float lr, float momentum,
                       float weight_decay, const float* grad, float* velocity,
                       float* value);

// ---------------------------------------------------------------------------
// Retained reference kernels — the seed implementation, kept verbatim as the
// summation-order contract, equivalence baseline and microbench yardstick.
// ---------------------------------------------------------------------------
namespace ref {
void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate = false,
             const float* bias_row = nullptr, const float* bias_col = nullptr);
void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate = false);
void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate = false);
void im2col(const float* image, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* cols);
void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t pad,
            std::size_t stride, float* grad_image);
/// 2x2 max pooling over `planes` [height, width] planes; argmax holds the
/// winner's index within its plane.
void maxpool2x2_forward(const float* input, std::size_t planes,
                        std::size_t height, std::size_t width, float* output,
                        std::uint32_t* argmax);
/// Zero-fills grad_input, then adds each output gradient at its argmax.
void maxpool2x2_backward(const float* grad_output, const std::uint32_t* argmax,
                         std::size_t planes, std::size_t height,
                         std::size_t width, float* grad_input);
}  // namespace ref

}  // namespace mach::tensor::kernels
