// Dense kernels backing the neural-network layers: GEMM variants, the
// convolution forward and backward, pooling, activations and the softmax
// cross-entropy head.
//
// All kernels are single-threaded (the simulator runs many small models, not
// one big one). The Tensor-level entry points here are thin shape-checked
// adapters over the register-blocked kernel layer in tensor/kernels/ (see
// kernels.h for the blocking scheme and the determinism contract); the conv
// backward runs over raw views + a caller-owned ScratchArena so steady-state
// training allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace mach::tensor {

// ---------------------------------------------------------------------------
// GEMM: C = A * B (+ C if accumulate). Shapes: A[m,k], B[k,n], C[m,n].
// ---------------------------------------------------------------------------
void gemm(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
/// C = A^T * B. Shapes: A[k,m], B[k,n], C[m,n].
void gemm_at_b(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);
/// C = A * B^T. Shapes: A[m,k], B[n,k], C[m,n].
void gemm_a_bt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);

/// Dense-layer forward with fused bias epilogue: out[m,n] = in[m,k] *
/// W[k,n] + bias[n] (bias added once after the final k contribution — the
/// float chain is identical to gemm followed by add_row_bias).
void linear_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                    Tensor& output);

/// Adds a row vector bias[n] to every row of x[m,n].
void add_row_bias(Tensor& x, const Tensor& bias);
/// Accumulates column sums of grad[m,n] into bias_grad[n].
void sum_rows(const Tensor& grad, Tensor& bias_grad, bool accumulate = false);

// ---------------------------------------------------------------------------
// Convolution, bit for bit the GEMM over the im2col matrix (im2col and
// col2im are the reference's building blocks). Input NCHW, kernel
// [out_c, in_c, kh, kw], symmetric zero padding `pad`.
// ---------------------------------------------------------------------------
struct ConvSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 3;    // square kernels only
  std::size_t pad = 1;       // symmetric zero padding
  std::size_t stride = 1;

  std::size_t out_dim(std::size_t in_dim) const noexcept {
    return (in_dim + 2 * pad - kernel) / stride + 1;
  }
};

/// Unfolds input[n,c,h,w] into columns[c*kh*kw, out_h*out_w] for image n.
void im2col(const Tensor& input, std::size_t image_index, const ConvSpec& spec,
            Tensor& columns);
/// Accumulates columns[c*kh*kw, out_h*out_w] back into grad_input image n.
void col2im(const Tensor& columns, std::size_t image_index, const ConvSpec& spec,
            Tensor& grad_input);

/// Forward convolution over the whole minibatch (kernels::conv_forward: a
/// block of images in the vector lanes, each lane im2col + GEMM + bias's
/// float chain). output must be [n, out_c, out_h, out_w]. The weight is
/// viewed in place as [out_c, patch]; no heap allocations once the calling
/// thread's scratch buffer is warm.
void conv2d_forward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                    const ConvSpec& spec, Tensor& output);
/// Backward convolution over the whole minibatch (kernels::conv_backward):
/// overwrites grad_weight and grad_bias and, unless grad_input is nullptr,
/// grad_input (nullptr skips the input gradient; the parameter gradients are
/// the same either way). `arena` provides the scratch, one span per call.
void conv2d_backward(const Tensor& input, const Tensor& weight,
                     const Tensor& grad_output, const ConvSpec& spec,
                     Tensor* grad_input, Tensor& grad_weight, Tensor& grad_bias,
                     ScratchArena& arena);

// ---------------------------------------------------------------------------
// Conv -> ReLU -> 2x2 max pool in one pass (nn::ConvBlock), bit for bit the
// chain conv2d_forward, relu_forward, maxpool2x2_forward. The conv output
// (even height and width) is never stored: kernels::conv_relu_pool_forward
// pools each conv tile in registers, with one block's lanes in one `arena`
// span whatever the batch. pooled must be [n, out_c, out_h/2, out_w/2];
// codes is resized to one byte per window (its winner,
// kernels::conv_relu_pool_forward).
// ---------------------------------------------------------------------------
void conv2d_relu_pool_forward(const Tensor& input, const Tensor& weight,
                              const Tensor& bias, const ConvSpec& spec,
                              Tensor& pooled, std::vector<std::uint8_t>& codes,
                              ScratchArena& arena);
/// The conv output's gradient: +0 except at each window's winner, which gets
/// pooled > 0 ? 0.0f + grad_pooled : +0 (maxpool2x2_backward followed by
/// relu_backward). grad_conv must be [n, c, 2 * pooled_h, 2 * pooled_w].
void relu_pool_backward(const Tensor& pooled,
                        const std::vector<std::uint8_t>& codes,
                        const Tensor& grad_pooled, Tensor& grad_conv);

// ---------------------------------------------------------------------------
// 2x2 max pooling, stride 2 (dimensions must be even). argmax[i] is the
// flat input index of output i's maximum (the first strictly greater
// candidate of its window wins).
// ---------------------------------------------------------------------------
void maxpool2x2_forward(const Tensor& input, Tensor& output,
                        std::vector<std::uint32_t>& argmax);
void maxpool2x2_backward(const Tensor& grad_output,
                         const std::vector<std::uint32_t>& argmax,
                         Tensor& grad_input);

// ---------------------------------------------------------------------------
// Activations.
// ---------------------------------------------------------------------------
void relu_forward(const Tensor& input, Tensor& output);
/// grad_input = grad_output where mask > 0 else 0. The mask may be the ReLU's
/// input x or its output y = x > 0 ? x : 0: y > 0 exactly when x > 0,
/// including NaN and signed zeros, so both give the same gradient.
void relu_backward(const Tensor& mask, const Tensor& grad_output, Tensor& grad_input);

// ---------------------------------------------------------------------------
// Softmax cross-entropy head.
// ---------------------------------------------------------------------------
/// Computes row-wise softmax of logits[m,n] into probs[m,n] (numerically stable).
void softmax(const Tensor& logits, Tensor& probs);
/// Mean cross-entropy loss over the batch given integer labels.
double cross_entropy_loss(const Tensor& probs, std::span<const int> labels);
/// grad_logits = (probs - onehot(labels)) / batch.
void softmax_cross_entropy_backward(const Tensor& probs, std::span<const int> labels,
                                    Tensor& grad_logits);
/// Number of rows whose argmax equals the label.
std::size_t count_correct(const Tensor& logits, std::span<const int> labels);

}  // namespace mach::tensor
