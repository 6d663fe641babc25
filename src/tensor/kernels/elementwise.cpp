// The public elementwise, optimiser and int8 kernels, and the loops that
// stay on the baseline ISA.
//
// relu, relu_bwd, axpy, axpy_delta, scale, scale_copy, vadd,
// add_bias_rows, col_sums, sgd_step, sgd_momentum_step and the int8 codec's
// loops dispatch through the active variant, as the GEMMs do: each is
// written once in vector_loops.h and runs 4, 8 or 16 floats wide, with the
// per-element expressions of the naive loops they replaced (ops.cpp,
// nn/sgd.cpp, hfl/simulator.cpp, comm/int8_codec.cpp), so results are
// bitwise identical on every variant. At the fleet MLP's 2,410 parameters
// the data sits in L1 and the loops are compute-bound, so width pays
// (DESIGN.md §9 has the per-call numbers).
//
// What stays here, built for the baseline ISA with -O3 -ffp-contract=off:
//   * dot and squared_norm, whose fixed summation chains are part of the
//     determinism contract (gradient-norm observables must not depend on
//     thread count or ISA), so each stays one serial chain; several chains
//     side by side are kernels::squared_norms;
//   * the maxpool2x2_backward scatter, whose stores go through an index.
#include "tensor/kernels/gemm_variants.h"
#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels {

void relu(std::size_t n, const float* x, float* y) {
  detail::active_variant().relu(n, x, y);
}

void relu_bwd(std::size_t n, const float* x, const float* gy, float* gx) {
  detail::active_variant().relu_bwd(n, x, gy, gx);
}

void axpy(std::size_t n, float alpha, const float* x, float* y) {
  detail::active_variant().axpy(n, alpha, x, y);
}

void axpy_delta(std::size_t n, float alpha, const float* x, const float* base,
                float* y) {
  detail::active_variant().axpy_delta(n, alpha, x, base, y);
}

void scale(std::size_t n, float alpha, float* x) {
  detail::active_variant().scale(n, alpha, x);
}

void scale_copy(std::size_t n, float alpha, const float* x, float* y) {
  detail::active_variant().scale_copy(n, alpha, x, y);
}

void vadd(std::size_t n, const float* x, float* y) {
  detail::active_variant().vadd(n, x, y);
}

void add_bias_rows(std::size_t m, std::size_t n, const float* bias, float* x) {
  detail::active_variant().add_bias_rows(m, n, bias, x);
}

void col_sums(std::size_t m, std::size_t n, const float* x, float* out,
              bool accumulate) {
  detail::active_variant().col_sums(m, n, x, out, accumulate);
}

void sgd_step(std::size_t n, float lr, float weight_decay, const float* grad,
              float* value) {
  detail::active_variant().sgd_step(n, lr, weight_decay, grad, value);
}

void sgd_momentum_step(std::size_t n, float lr, float momentum,
                       float weight_decay, const float* grad, float* velocity,
                       float* value) {
  detail::active_variant().sgd_momentum_step(n, lr, momentum, weight_decay,
                                             grad, velocity, value);
}

float int8_max_abs(std::size_t n, const float* x) {
  return detail::active_variant().int8_max_abs(n, x);
}

void int8_quantise(std::size_t n, const float* x, float inv_scale,
                   std::uint8_t* q) {
  detail::active_variant().int8_quantise(n, x, inv_scale, q);
}

void int8_dequantise(std::size_t n, const std::uint8_t* q, float scale,
                     float* out) {
  detail::active_variant().int8_dequantise(n, q, scale, out);
}

void maxpool2x2_backward(std::size_t outputs, const float* gy,
                         const std::uint32_t* argmax, std::size_t inputs,
                         float* gx) {
  for (std::size_t i = 0; i < inputs; ++i) gx[i] = 0.0f;
  for (std::size_t i = 0; i < outputs; ++i) gx[argmax[i]] = 0.0f + gy[i];
}

double dot(std::size_t n, const float* x, const float* y) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  return total;
}

double squared_norm(std::size_t n, const float* x) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    total += v * v;
  }
  return total;
}

}  // namespace mach::tensor::kernels
