// Kernel-layer microbench: blocked GEMM vs the retained reference kernels
// over the paper-shaped sizes (every conv/dense GEMM of the MNIST cnn2 and
// CIFAR-10 cnn3 forward and backward passes, plus a square point), with a
// per-shape exact-equality spot check. Every GEMM variant this CPU can run
// (baseline, AVX2, AVX-512) gets its own row per shape; the "variant" field
// is part of each row's identity for bench_diff. Layer rows follow at the
// end-to-end benchmark's shapes (16 images): the minibatch conv forward and
// backward per variant (the backward with and without the input gradient)
// against the per-image reference composition (ref::im2col with
// ref::gemm_nn, or with ref::gemm_nt, ref::gemm_tn and ref::col2im), and 2x2
// max pooling against the seed loops (not per variant: pooling is plain
// C++). Block rows time each conv stage's fused nn::ConvBlock against the
// Conv2D -> ReLU -> MaxPool2x2 chain it replaces, forward and backward, on
// the active variant; the first block's backward skips the input gradient
// on both sides, as training does. The conv forward, conv backward (with
// dx) and block rows repeat at 1, 4 and 8 images (group "counts"): the
// convolutions run whole blocks of images in the vector lanes, so these
// show what a partial block costs. Layer rows also carry ms per call.
// Codec rows time the int8 transcode of a whole model message (the fleet MLP
// and the CIFAR CNN) against the codec's scalar reference, in us per call;
// their variant is the codec's compile-time path (sse2 or scalar). Fleet
// rows time, per variant and in us per call, the fleet MLP's Dense GEMMs at
// the local step's batch of 4 and the MACH-P probe's 16, and one 8-lane
// squared_norms call over 2,410-parameter gradients against eight serial
// squared_norm chains.
// Results are printed as a table and written as BENCH_kernels.json.
//
//   ./kernels [--min_ms 150] [--out BENCH_kernels.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/codec_impl.h"
#include "common/cli.h"
#include "common/cpu_isa.h"
#include "common/rng.h"
#include "common/table.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_block.h"
#include "obs/json.h"
#include "obs/resource.h"
#include "tensor/kernels/gemm_variants.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace {

using namespace mach;
namespace kern = tensor::kernels;

enum class Op {
  Nn, Tn, Nt, ConvFwd, ConvBwd, ConvBwdNoDx, PoolFwd, PoolBwd, BlockFwd,
  BlockBwd, Int8Encode, Int8Decode, GradNorms
};

struct Case {
  std::string name;   // e.g. "cifar_conv2_fwd"
  std::string group;  // "mnist", "cifar", "square" or "bench"
  Op op;
  std::size_t m, k, n;
  bool per_call_us = false;  // also report us per call (ref_us/blocked_us)
};

struct Result {
  Case shape;
  std::string variant;
  double ref_gflops = 0.0;
  double blocked_gflops = 0.0;
  double speedup = 0.0;
  bool exact = false;
  // Layer rows only: ms per call (pool rows have no flop count).
  double ref_ms = 0.0;
  double blocked_ms = 0.0;
  // Codec rows only: us per call.
  double ref_us = 0.0;
  double blocked_us = 0.0;
};

const char* op_name(Op op) {
  switch (op) {
    case Op::Nn: return "nn";
    case Op::Tn: return "tn";
    case Op::Nt: return "nt";
    case Op::ConvFwd: return "conv_fwd";
    case Op::ConvBwd: return "conv_bwd";
    case Op::ConvBwdNoDx: return "conv_bwd_nodx";
    case Op::PoolFwd: return "pool_fwd";
    case Op::PoolBwd: return "pool_bwd";
    case Op::BlockFwd: return "block_fwd";
    case Op::BlockBwd: return "block_bwd";
    case Op::Int8Encode: return "int8_encode";
    case Op::Int8Decode: return "int8_decode";
    case Op::GradNorms: return "grad_norms";
  }
  return "?";
}

// A and B storage sizes depend on the op (tn stores A as [k,m], nt stores B
// as [n,k]); C is always m x n. variant == nullptr runs the reference.
void run_op(Op op, const kern::detail::GemmVariant* variant, const float* a,
            const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n) {
  switch (op) {
    case Op::Nn:
      if (variant == nullptr) {
        kern::ref::gemm_nn({a, m, k}, {b, k, n}, {c, m, n});
      } else {
        kern::detail::gemm_nn(*variant, {a, m, k}, {b, k, n}, {c, m, n});
      }
      break;
    case Op::Tn:
      if (variant == nullptr) {
        kern::ref::gemm_tn({a, k, m}, {b, k, n}, {c, m, n});
      } else {
        kern::detail::gemm_tn(*variant, {a, k, m}, {b, k, n}, {c, m, n});
      }
      break;
    case Op::Nt:
      if (variant == nullptr) {
        kern::ref::gemm_nt({a, m, k}, {b, n, k}, {c, m, n});
      } else {
        kern::detail::gemm_nt(*variant, {a, m, k}, {b, n, k}, {c, m, n});
      }
      break;
    default:
      break;
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// A row's timing: seconds per call of its reference and of its production
/// side, from one round of time_pair.
struct PairTiming {
  double ref_s;
  double run_s;
  double speedup() const { return ref_s / run_s; }
};

/// Times `reference` and `run` side by side. Each side's repetition count
/// doubles until one batch takes min_ms / kRounds (after one warm-up call);
/// then kRounds rounds time one batch of each side in turn, and the round
/// with the median ratio is the row's timing. The host's speed drifts, at
/// times between states up to 2x apart for minutes: timed one after the
/// other, a drift between the two sides passed for a change of speedup. A
/// round's two batches share its state, and the median drops the round a
/// change of state falls in.
template <class R, class F>
PairTiming time_pair(const R& reference, const F& run, double min_ms) {
  constexpr std::size_t kRounds = 7;
  const double batch_s = min_ms * 1e-3 / kRounds;
  const auto batch = [](const auto& call, std::size_t reps) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) call();
    return seconds_since(start) / static_cast<double>(reps);
  };
  const auto calibrate = [&](const auto& call) {
    call();
    std::size_t reps = 1;
    while (batch(call, reps) * static_cast<double>(reps) < batch_s &&
           reps <= (1u << 28)) {
      reps *= 2;
    }
    return reps;
  };
  const std::size_t ref_reps = calibrate(reference), run_reps = calibrate(run);
  std::vector<PairTiming> rounds(kRounds);
  for (PairTiming& round : rounds) {
    round.ref_s = batch(reference, ref_reps);
    round.run_s = batch(run, run_reps);
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end(),
                   [](const PairTiming& a, const PairTiming& b) {
                     return a.speedup() < b.speedup();
                   });
  return rounds[kRounds / 2];
}

/// A conv layer of the benchmark models: channels -> out_c over h x h
/// images, 3x3 kernel, pad 1.
struct ConvLayer {
  std::string name;
  std::size_t channels, out_c, h;
};

/// The conv layers of the end-to-end benchmark's models.
const std::vector<ConvLayer>& bench_convs() {
  static const std::vector<ConvLayer> convs = {
      {"bench_cifar_conv1", 3, 8, 16},  {"bench_cifar_conv2", 8, 16, 8},
      {"bench_cifar_conv3", 16, 32, 4}, {"bench_mnist_conv1", 1, 8, 12},
      {"bench_mnist_conv2", 8, 16, 6},
  };
  return convs;
}

/// Image counts of the layer rows: the minibatch (16, group "bench", which
/// the CI perf gate compares by family) and partial lane blocks (1, 4 and
/// 8 images, group "counts", whose names end in the count).
constexpr std::size_t kLayerBatch = 16;
constexpr std::size_t kLayerBatches[] = {kLayerBatch, 1, 4, 8};

/// A layer row's case: the 16-image row keeps its name and group, a
/// partial-block row appends its image count and goes to "counts".
Case layer_case(const std::string& name, std::size_t batch, Op op,
                std::size_t m, std::size_t k, std::size_t n) {
  if (batch == kLayerBatch) return {name, "bench", op, m, k, n};
  return {name + std::to_string(batch), "counts", op, m, k, n};
}

/// Conv-forward rows at the end-to-end benchmark's layer shapes, per
/// variant and image count: the production conv_forward (a block of images
/// in the vector lanes) against the reference composition ref::im2col +
/// ref::gemm_nn with a bias row, per image. Each call takes the next of
/// kInputs distinct minibatches.
void conv_forward_rows(
    const std::vector<const kern::detail::GemmVariant*>& variants,
    double min_ms, common::Rng& rng, std::vector<Result>& results) {
  constexpr std::size_t kInputs = 4;
  for (const ConvLayer& l : bench_convs()) {
    const kern::ConvShape shape{l.channels, l.h, l.h, 3, 1, 1};
    const std::size_t patch = l.channels * 9, n = l.h * l.h;
    const std::size_t image = l.channels * n, out = l.out_c * n;
    std::vector<float> weight(l.out_c * patch), bias(l.out_c);
    for (auto& v : weight) v = static_cast<float>(rng.normal());
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    std::vector<float> cols(patch * n);
    for (const std::size_t batch : kLayerBatches) {
      std::vector<std::vector<float>> inputs(kInputs);
      for (auto& input : inputs) {
        input.resize(batch * image);
        for (auto& v : input) v = static_cast<float>(rng.normal());
      }
      std::vector<float> want(batch * out), got(batch * out);
      std::size_t next = 0;
      const auto reference = [&] {
        const float* input = inputs[next++ % kInputs].data();
        for (std::size_t img = 0; img < batch; ++img) {
          kern::ref::im2col(input + img * image, l.channels, l.h, l.h, 3, 1, 1,
                            cols.data());
          kern::ref::gemm_nn({weight.data(), l.out_c, patch},
                             {cols.data(), patch, n},
                             {want.data() + img * out, l.out_c, n}, false,
                             bias.data(), nullptr);
        }
      };
      const Case c = layer_case(l.name + "_fwd", batch, Op::ConvFwd, l.out_c,
                                patch, batch * n);
      const double flops = 2.0 * static_cast<double>(c.m) *
                           static_cast<double>(c.k) * static_cast<double>(c.n);
      for (const auto* variant : variants) {
        const auto run = [&] {
          kern::detail::conv_forward(*variant, inputs[next++ % kInputs].data(),
                                     batch, shape,
                                     {weight.data(), l.out_c, patch},
                                     bias.data(), got.data());
        };
        bool exact = true;
        for (std::size_t i = 0; i < kInputs; ++i) {
          next = i;
          reference();
          next = i;
          run();
          exact = exact && got == want;
        }
        const PairTiming t = time_pair(reference, run, min_ms);
        Result r;
        r.shape = c;
        r.variant = common::gemm_isa_name(variant->isa);
        r.exact = exact;
        r.ref_gflops = flops / t.ref_s * 1e-9;
        r.blocked_gflops = flops / t.run_s * 1e-9;
        r.speedup = t.speedup();
        r.ref_ms = t.ref_s * 1e3;
        r.blocked_ms = t.run_s * 1e3;
        results.push_back(r);
      }
    }
  }
}

/// Gradients of a conv backward over `batch` images: the retained
/// per-image reference composition (zero fills, ref::im2col, ref::gemm_nt
/// accumulate, and with dx ref::gemm_tn + ref::col2im, then the bias row
/// sums).
struct ConvBackwardBench {
  std::size_t batch;
  kern::ConvShape shape;
  std::size_t out_c, n, patch, image;
  std::vector<float> input, weight, grad_out;
  std::vector<float> cols, gcols;

  ConvBackwardBench(const ConvLayer& l, std::size_t batch, common::Rng& rng)
      : batch(batch),
        shape{l.channels, l.h, l.h, 3, 1, 1},
        out_c(l.out_c),
        n(l.h * l.h),
        patch(l.channels * 9),
        image(l.channels * l.h * l.h),
        input(batch * image),
        weight(out_c * patch),
        grad_out(batch * out_c * n),
        cols(patch * n),
        gcols(patch * n) {
    for (auto& v : input) v = static_cast<float>(rng.normal());
    for (auto& v : weight) v = static_cast<float>(rng.normal());
    for (auto& v : grad_out) v = static_cast<float>(rng.normal());
  }

  void reference(bool dx, float* grad_images, float* dw, float* db) {
    std::fill_n(dw, out_c * patch, 0.0f);
    std::fill_n(db, out_c, 0.0f);
    if (dx) std::fill_n(grad_images, batch * image, 0.0f);
    for (std::size_t img = 0; img < batch; ++img) {
      const float* gout = grad_out.data() + img * out_c * n;
      kern::ref::im2col(input.data() + img * image, shape.channels,
                        shape.height, shape.width, 3, 1, 1, cols.data());
      kern::ref::gemm_nt({gout, out_c, n}, {cols.data(), patch, n},
                         {dw, out_c, patch}, /*accumulate=*/true);
      if (dx) {
        kern::ref::gemm_tn({weight.data(), out_c, patch}, {gout, out_c, n},
                           {gcols.data(), patch, n});
        kern::ref::col2im(gcols.data(), shape.channels, shape.height,
                          shape.width, 3, 1, 1, grad_images + img * image);
      }
      for (std::size_t o = 0; o < out_c; ++o) {
        float acc = 0.0f;
        for (std::size_t q = 0; q < n; ++q) acc += gout[o * n + q];
        db[o] += acc;
      }
    }
  }
};

/// One conv-backward row per variant: `dx` with or without the input
/// gradient, over b's images.
void conv_backward_row(
    const std::vector<const kern::detail::GemmVariant*>& variants,
    const ConvLayer& l, ConvBackwardBench& b, bool dx, double min_ms,
    std::vector<Result>& results) {
  const std::size_t pixels = b.batch * b.n;
  const Case c = layer_case(l.name + (dx ? "_bwd" : "_bwd_nodx"), b.batch,
                            dx ? Op::ConvBwd : Op::ConvBwdNoDx, b.out_c,
                            b.patch, pixels);
  std::vector<float> want_dx(dx ? b.batch * b.image : 0),
      want_dw(b.out_c * b.patch), want_db(b.out_c);
  const auto reference = [&] {
    b.reference(dx, want_dx.data(), want_dw.data(), want_db.data());
  };
  reference();
  // dW is one GEMM of 2 m k n flops; dX is a second.
  const double flops = (dx ? 4.0 : 2.0) * static_cast<double>(c.m) *
                       static_cast<double>(c.k) * static_cast<double>(c.n);
  for (const auto* variant : variants) {
    std::vector<float> got_dx(want_dx.size()), got_dw(want_dw.size()),
        got_db(want_db.size());
    std::vector<float> scratch(kern::detail::conv_backward_scratch(
        *variant, b.batch, b.shape, b.out_c, dx));
    const auto run = [&] {
      kern::detail::conv_backward(
          *variant, b.input.data(), b.batch, b.shape,
          {b.weight.data(), b.out_c, b.patch}, b.grad_out.data(),
          dx ? got_dx.data() : nullptr, got_dw.data(), got_db.data(),
          scratch.data());
    };
    run();
    Result r;
    r.shape = c;
    r.variant = common::gemm_isa_name(variant->isa);
    r.exact = got_dx == want_dx && got_dw == want_dw && got_db == want_db;
    const PairTiming t = time_pair(reference, run, min_ms);
    r.ref_gflops = flops / t.ref_s * 1e-9;
    r.blocked_gflops = flops / t.run_s * 1e-9;
    r.speedup = t.speedup();
    r.ref_ms = t.ref_s * 1e3;
    r.blocked_ms = t.run_s * 1e3;
    results.push_back(r);
  }
}

/// Conv-backward rows (per variant: 16 images with and without dx, and
/// the partial-block counts with dx) and pooling rows at the end-to-end
/// benchmark's layer shapes.
void layer_rows(const std::vector<const kern::detail::GemmVariant*>& variants,
                double min_ms, common::Rng& rng, std::vector<Result>& results) {
  for (const ConvLayer& l : bench_convs()) {
    for (const std::size_t batch : kLayerBatches) {
      ConvBackwardBench b(l, batch, rng);
      conv_backward_row(variants, l, b, true, min_ms, results);
      if (batch == kLayerBatch) {
        conv_backward_row(variants, l, b, false, min_ms, results);
      }
    }
  }

  // Pooling inputs of the same models: [channels, h, h] per image. Each
  // call takes the next of kInputs distinct inputs: replaying one input
  // lets the branch predictor learn the reference's data-dependent
  // branches, which real activations never allow.
  constexpr std::size_t kInputs = 16;
  const std::vector<ConvLayer> pools = {
      {"bench_cifar_pool1", 8, 0, 16}, {"bench_cifar_pool2", 16, 0, 8},
      {"bench_cifar_pool3", 32, 0, 4}, {"bench_mnist_pool1", 8, 0, 12},
      {"bench_mnist_pool2", 16, 0, 6},
  };
  const std::string active =
      common::gemm_isa_name(kern::detail::active_variant().isa);
  for (const ConvLayer& l : pools) {
    const std::size_t batch = kLayerBatch;
    const std::size_t planes = batch * l.channels, h = l.h;
    const std::size_t outputs = planes * (h / 2) * (h / 2);
    std::vector<tensor::Tensor> inputs;
    for (std::size_t i = 0; i < kInputs; ++i) {
      inputs.emplace_back(std::vector<std::size_t>{batch, l.channels, h, h});
      for (auto& v : inputs.back().flat()) v = static_cast<float>(rng.normal());
    }
    tensor::Tensor output({batch, l.channels, h / 2, h / 2});
    tensor::Tensor grad_out(output.shape()), grad_in(inputs[0].shape());
    for (auto& v : grad_out.flat()) v = static_cast<float>(rng.normal());
    std::vector<std::uint32_t> argmax, ref_argmax(outputs);
    std::vector<float> ref_out(outputs), ref_grad(planes * h * h);
    for (bool fwd : {true, false}) {
      Case c{l.name + (fwd ? "_fwd" : "_bwd"), "bench",
             fwd ? Op::PoolFwd : Op::PoolBwd, planes, h, h};
      std::size_t ref_next = 0, next = 0;
      const auto reference = [&] {
        if (fwd) {
          kern::ref::maxpool2x2_forward(inputs[ref_next++ % kInputs].data(),
                                        planes, h, h, ref_out.data(),
                                        ref_argmax.data());
        } else {
          kern::ref::maxpool2x2_backward(grad_out.data(), ref_argmax.data(),
                                         planes, h, h, ref_grad.data());
        }
      };
      const auto run = [&] {
        if (fwd) {
          tensor::maxpool2x2_forward(inputs[next++ % kInputs], output, argmax);
        } else {
          tensor::maxpool2x2_backward(grad_out, argmax, grad_in);
        }
      };
      // Same input on both sides for the equality check (the backward
      // rows scatter through both forwards' argmax of inputs[0]).
      if (!fwd) {
        kern::ref::maxpool2x2_forward(inputs[0].data(), planes, h, h,
                                      ref_out.data(), ref_argmax.data());
        tensor::maxpool2x2_forward(inputs[0], output, argmax);
      }
      ref_next = next = 0;
      reference();
      run();
      Result r;
      r.shape = c;
      r.variant = active;
      r.exact = fwd ? std::equal(ref_out.begin(), ref_out.end(),
                                 output.flat().begin())
                    : std::equal(ref_grad.begin(), ref_grad.end(),
                                 grad_in.flat().begin());
      const PairTiming t = time_pair(reference, run, min_ms);
      r.speedup = t.speedup();
      r.ref_ms = t.ref_s * 1e3;
      r.blocked_ms = t.run_s * 1e3;
      results.push_back(r);
    }
  }
}

/// One conv stage both ways: the fused block and the chain, same weights.
struct Stage {
  nn::ConvBlock block;
  nn::Conv2D conv;
  nn::ReLU relu;
  nn::MaxPool2x2 pool;

  Stage(const ConvLayer& l, common::Rng& rng)
      : block(l.channels, l.out_c, 3, 1), conv(l.channels, l.out_c, 3, 1) {
    block.init_params(rng);
    const auto from = block.params(), to = conv.params();
    for (std::size_t i = 0; i < from.size(); ++i) *to[i].value = *from[i].value;
  }
  const tensor::Tensor& chain_forward(const tensor::Tensor& x) {
    return pool.forward(relu.forward(conv.forward(x)));
  }
  /// The training step's backward: the input gradient, or nullptr for the
  /// first block, which skips it.
  const tensor::Tensor* chain_backward(const tensor::Tensor& g, bool first) {
    const tensor::Tensor& grad_conv = relu.backward(pool.backward(g));
    if (!first) return &conv.backward(grad_conv);
    conv.backward_params(grad_conv);
    return nullptr;
  }
  const tensor::Tensor* block_backward(const tensor::Tensor& g, bool first) {
    if (!first) return &block.backward(g);
    block.backward_params(g);
    return nullptr;
  }
};

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// block_rows' rows for one stage at `batch` images.
void block_rows_at(const ConvLayer& l, std::size_t batch, double min_ms,
                   common::Rng& rng, std::vector<Result>& results) {
  constexpr std::size_t kInputs = 4;
  const std::string active =
      common::gemm_isa_name(kern::detail::active_variant().isa);
  const bool first = l.name.back() == '1';  // its model's first layer
  std::vector<std::unique_ptr<Stage>> stages;
  std::vector<tensor::Tensor> inputs, grads;
  for (std::size_t i = 0; i < kInputs; ++i) {
    stages.push_back(std::make_unique<Stage>(l, rng));
    inputs.emplace_back(std::vector<std::size_t>{batch, l.channels, l.h, l.h});
    for (auto& v : inputs.back().flat()) v = static_cast<float>(rng.normal());
    grads.emplace_back(std::vector<std::size_t>{batch, l.out_c, l.h / 2, l.h / 2});
    for (auto& v : grads.back().flat()) v = static_cast<float>(rng.normal());
  }
  // Exactness, and each backward stage's forward state.
  bool fwd_exact = true, bwd_exact = true;
  for (std::size_t i = 0; i < kInputs; ++i) {
    Stage& s = *stages[i];
    fwd_exact = fwd_exact &&
                same_bits(s.block.forward(inputs[i]), s.chain_forward(inputs[i]));
    const tensor::Tensor* got_dx = s.block_backward(grads[i], first);
    const tensor::Tensor* want_dx = s.chain_backward(grads[i], first);
    bwd_exact = bwd_exact && (first || same_bits(*got_dx, *want_dx));
    const auto a = s.block.params(), b = s.conv.params();
    for (std::size_t p = 0; p < a.size(); ++p) {
      bwd_exact = bwd_exact && same_bits(*a[p].grad, *b[p].grad);
    }
  }
  const std::size_t patch = l.channels * 9, pixels = batch * l.h * l.h;
  for (bool fwd : {true, false}) {
    const Case c = layer_case(l.name + (fwd ? "_fwd" : "_bwd"), batch,
                              fwd ? Op::BlockFwd : Op::BlockBwd, l.out_c,
                              patch, pixels);
    std::size_t next = 0;
    Stage& one = *stages[0];
    const auto reference = [&] {
      const std::size_t i = next++ % kInputs;
      if (fwd) {
        one.chain_forward(inputs[i]);
      } else {
        stages[i]->chain_backward(grads[i], first);
      }
    };
    const auto run = [&] {
      const std::size_t i = next++ % kInputs;
      if (fwd) {
        one.block.forward(inputs[i]);
      } else {
        stages[i]->block_backward(grads[i], first);
      }
    };
    const PairTiming t = time_pair(reference, run, min_ms);
    // The conv GEMMs: the forward, or dW plus (past the first block) dX.
    const double flops = (fwd || first ? 2.0 : 4.0) * static_cast<double>(c.m) *
                         static_cast<double>(c.k) * static_cast<double>(c.n);
    Result r;
    r.shape = c;
    r.variant = active;
    r.exact = fwd ? fwd_exact : bwd_exact;
    r.ref_gflops = flops / t.ref_s * 1e-9;
    r.blocked_gflops = flops / t.run_s * 1e-9;
    r.speedup = t.speedup();
    r.ref_ms = t.ref_s * 1e3;
    r.blocked_ms = t.run_s * 1e3;
    results.push_back(r);
  }
}

/// Fused conv stages (nn::ConvBlock) against the chain at the end-to-end
/// benchmark's shapes on the active variant, at 16 images and the
/// partial-block counts. Forward calls take the next of kInputs distinct
/// minibatches; backward calls run on the next of kInputs stages, each
/// left by the forward of a distinct minibatch, so neither side replays one
/// winner pattern to the branch predictor.
void block_rows(double min_ms, common::Rng& rng, std::vector<Result>& results) {
  const std::vector<ConvLayer> blocks = {
      {"bench_cifar_block1", 3, 8, 16},  {"bench_cifar_block2", 8, 16, 8},
      {"bench_cifar_block3", 16, 32, 4}, {"bench_mnist_block1", 1, 8, 12},
      {"bench_mnist_block2", 8, 16, 6},
  };
  for (const ConvLayer& l : blocks) {
    for (const std::size_t batch : kLayerBatches) {
      block_rows_at(l, batch, min_ms, rng, results);
    }
  }
}

/// int8 encode and decode of one model message, production path against
/// the scalar reference, at the parameter counts of the fleet MLP and the
/// CIFAR CNN. Each call takes the next of kInputs distinct tensors.
void codec_rows(double min_ms, common::Rng& rng, std::vector<Result>& results) {
#if defined(__SSE2__)
  const std::string path = "sse2";
#else
  const std::string path = "scalar";
#endif
  constexpr std::size_t kInputs = 4;
  const auto codec = comm::make_codec({.kind = comm::CodecKind::Int8});
  const std::vector<std::pair<std::string, std::size_t>> models = {
      {"bench_fleet_int8", 2410}, {"bench_cifar_int8", 14938}};
  for (const auto& [name, count] : models) {
    std::vector<std::vector<float>> inputs(kInputs, std::vector<float>(count));
    for (auto& input : inputs) {
      for (auto& v : input) v = static_cast<float>(rng.normal() * 0.05);
    }
    std::vector<comm::Encoded> wires(kInputs);
    bool encode_exact = true, decode_exact = true;
    for (std::size_t i = 0; i < kInputs; ++i) {
      comm::Encoded want;
      codec->encode(inputs[i], {}, {}, wires[i]);
      comm::detail::int8_encode_reference(inputs[i], want);
      encode_exact = encode_exact && wires[i].bytes == want.bytes;
      std::vector<float> got_out, want_out;
      codec->decode(wires[i], count, {}, got_out);
      comm::detail::int8_decode_reference(wires[i], count, want_out);
      decode_exact = decode_exact &&
                     std::memcmp(got_out.data(), want_out.data(),
                                 count * sizeof(float)) == 0;
    }
    comm::Encoded wire;
    std::vector<float> out;
    std::size_t next = 0;
    for (bool encode : {true, false}) {
      const auto reference = [&] {
        const std::size_t i = next++ % kInputs;
        if (encode) {
          comm::detail::int8_encode_reference(inputs[i], wire);
        } else {
          comm::detail::int8_decode_reference(wires[i], count, out);
        }
      };
      const auto run = [&] {
        const std::size_t i = next++ % kInputs;
        if (encode) {
          codec->encode(inputs[i], {}, {}, wire);
        } else {
          codec->decode(wires[i], count, {}, out);
        }
      };
      Result r;
      r.shape = {name + (encode ? "_encode" : "_decode"), "bench",
                 encode ? Op::Int8Encode : Op::Int8Decode, count, 1, 1};
      r.variant = path;
      r.exact = encode ? encode_exact : decode_exact;
      const PairTiming t = time_pair(reference, run, min_ms);
      r.speedup = t.speedup();
      r.ref_us = t.ref_s * 1e6;
      r.blocked_us = t.run_s * 1e6;
      results.push_back(r);
    }
  }
}

/// One squared_norms call over eight 2,410-float gradients (the fleet MLP's
/// parameter count) per variant, against eight serial squared_norm chains.
/// Each call takes the next of kInputs distinct gradient sets.
void grad_norm_rows(const std::vector<const kern::detail::GemmVariant*>& variants,
                    double min_ms, common::Rng& rng,
                    std::vector<Result>& results) {
  constexpr std::size_t kInputs = 4, kLanes = kern::kMaxNormLanes, kCount = 2410;
  std::vector<std::vector<float>> inputs(kInputs,
                                         std::vector<float>(kLanes * kCount));
  for (auto& input : inputs) {
    for (auto& v : input) v = static_cast<float>(rng.normal() * 0.05);
  }
  double want[kLanes] = {}, got[kLanes] = {};
  std::size_t next = 0;
  const auto reference = [&] {
    const float* x = inputs[next++ % kInputs].data();
    for (std::size_t l = 0; l < kLanes; ++l) {
      want[l] = kern::squared_norm(kCount, x + l * kCount);
    }
  };
  for (const auto* variant : variants) {
    bool exact = true;
    for (std::size_t i = 0; i < kInputs; ++i) {
      next = i;
      reference();
      kern::detail::squared_norms(*variant, kLanes, kCount, inputs[i].data(),
                                  kCount, got);
      exact = exact && std::memcmp(got, want, sizeof(want)) == 0;
    }
    const PairTiming t = time_pair(
        reference,
        [&] {
          kern::detail::squared_norms(*variant, kLanes, kCount,
                                      inputs[next++ % kInputs].data(), kCount,
                                      got);
        },
        min_ms);
    Result r;
    r.shape = {"bench_fleet_grad_norms", "bench", Op::GradNorms, kLanes, 1,
               kCount, true};
    r.variant = common::gemm_isa_name(variant->isa);
    r.exact = exact;
    r.speedup = t.speedup();
    r.ref_us = t.ref_s * 1e6;
    r.blocked_us = t.run_s * 1e6;
    results.push_back(r);
  }
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Kernel microbench: blocked vs reference GEMM over paper-shaped sizes.");
  cli.add_flag("min_ms", static_cast<std::int64_t>(150),
               "minimum milliseconds of measured work per timing point");
  cli.add_flag("out", std::string("BENCH_kernels.json"), "JSON output path");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  const double min_ms = static_cast<double>(cli.get_int("min_ms"));

  // GEMM shapes of the paper's models at the original datasets' image
  // sizes (batch 32 for the dense layers): cnn2 on MNIST's 1x28x28, cnn3 on
  // CIFAR-10's 3x32x32. The simulator's synthetic presets are smaller,
  // 1x12x12 and 3x16x16 (data/synthetic.cpp); the "bench" group below
  // covers those. Forward = nn, weight-gradient = nt, column-gradient = tn.
  std::vector<Case> cases = {
      {"mnist_conv1_fwd", "mnist", Op::Nn, 8, 9, 784},
      {"mnist_conv2_fwd", "mnist", Op::Nn, 16, 72, 196},
      {"mnist_dense1_fwd", "mnist", Op::Nn, 32, 784, 32},
      {"mnist_dense2_fwd", "mnist", Op::Nn, 32, 32, 10},
      {"mnist_conv2_dw", "mnist", Op::Nt, 16, 196, 72},
      {"mnist_conv2_dcols", "mnist", Op::Tn, 72, 16, 196},
      {"cifar_conv1_fwd", "cifar", Op::Nn, 8, 27, 1024},
      {"cifar_conv2_fwd", "cifar", Op::Nn, 16, 72, 256},
      {"cifar_conv3_fwd", "cifar", Op::Nn, 32, 144, 64},
      {"cifar_dense1_fwd", "cifar", Op::Nn, 32, 512, 64},
      {"cifar_conv1_dw", "cifar", Op::Nt, 8, 1024, 27},
      {"cifar_conv2_dw", "cifar", Op::Nt, 16, 256, 72},
      {"cifar_conv2_dcols", "cifar", Op::Tn, 72, 16, 256},
      {"cifar_dense1_dw", "cifar", Op::Tn, 512, 32, 64},
      {"cifar_dense1_dx", "cifar", Op::Nt, 32, 64, 512},
      {"square_256", "square", Op::Nn, 256, 256, 256},
      // The same layers on the synthetic images the simulator trains on
      // (3x16x16 CIFAR-like, 1x12x12 MNIST-like; bench/e2e): n is 16-256,
      // which is what the wide variants' tiles are chosen for.
      {"bench_cifar_conv1_fwd", "bench", Op::Nn, 8, 27, 256},
      {"bench_cifar_conv2_fwd", "bench", Op::Nn, 16, 72, 64},
      {"bench_cifar_conv3_fwd", "bench", Op::Nn, 32, 144, 16},
      {"bench_cifar_conv1_dw", "bench", Op::Nt, 8, 256, 27},
      {"bench_cifar_conv2_dw", "bench", Op::Nt, 16, 64, 72},
      {"bench_cifar_conv3_dw", "bench", Op::Nt, 32, 16, 144},
      {"bench_cifar_conv1_dcols", "bench", Op::Tn, 27, 8, 256},
      {"bench_cifar_conv2_dcols", "bench", Op::Tn, 72, 16, 64},
      {"bench_cifar_conv3_dcols", "bench", Op::Tn, 144, 32, 16},
      {"bench_mnist_conv1_fwd", "bench", Op::Nn, 8, 9, 144},
      {"bench_mnist_conv2_fwd", "bench", Op::Nn, 16, 72, 36},
      {"bench_mnist_conv2_dw", "bench", Op::Nt, 16, 36, 72},
      {"bench_mnist_conv2_dcols", "bench", Op::Tn, 72, 16, 36},
  };
  // The fleet MLP's Dense layers (64 -> 32 -> 10) at the local step's batch
  // (4) and the MACH-P probe's (16): forward y = x·W, weight gradient
  // dW = xᵀ·dy and input gradient dx = dy·Wᵀ.
  struct DenseLayer {
    std::string name;
    std::size_t in, out;
  };
  const DenseLayer fleet_layers[] = {{"bench_fleet_dense1", 64, 32},
                                     {"bench_fleet_dense2", 32, 10}};
  for (const DenseLayer& d : fleet_layers) {
    for (const std::size_t batch : {4, 16}) {
      cases.push_back({d.name + "_fwd", "bench", Op::Nn, batch, d.in, d.out, true});
      cases.push_back({d.name + "_dw", "bench", Op::Tn, d.in, batch, d.out, true});
      cases.push_back({d.name + "_dx", "bench", Op::Nt, batch, d.out, d.in, true});
    }
  }

  const auto variants = kern::detail::host_variants();
  const std::string active =
      common::gemm_isa_name(kern::detail::active_variant().isa);
  common::Rng rng(99);
  std::vector<Result> results;
  for (const auto& c : cases) {
    std::vector<float> a(c.m * c.k), b(c.k * c.n);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    std::vector<float> c_ref(c.m * c.n, 0.0f), c_blk(c.m * c.n, 0.0f);
    const auto reference = [&] {
      run_op(c.op, nullptr, a.data(), b.data(), c_ref.data(), c.m, c.k, c.n);
    };
    reference();
    const double flops =
        2.0 * static_cast<double>(c.m) * static_cast<double>(c.k) *
        static_cast<double>(c.n);
    for (const auto* variant : variants) {
      Result r;
      r.shape = c;
      r.variant = common::gemm_isa_name(variant->isa);
      const auto run = [&] {
        run_op(c.op, variant, a.data(), b.data(), c_blk.data(), c.m, c.k, c.n);
      };
      run();
      r.exact = c_ref == c_blk;
      const PairTiming t = time_pair(reference, run, min_ms);
      r.ref_gflops = flops / t.ref_s * 1e-9;
      r.blocked_gflops = flops / t.run_s * 1e-9;
      r.speedup = t.speedup();
      if (c.per_call_us) {
        r.ref_us = t.ref_s * 1e6;
        r.blocked_us = t.run_s * 1e6;
      }
      results.push_back(r);
    }
  }

  conv_forward_rows(variants, min_ms, rng, results);
  layer_rows(variants, min_ms, rng, results);
  block_rows(min_ms, rng, results);
  codec_rows(min_ms, rng, results);
  grad_norm_rows(variants, min_ms, rng, results);

  common::Table table(
      {"case", "variant", "op", "m", "k", "n", "ref GF/s", "blk GF/s", "blk ms",
       "speedup", "exact"});
  double min_cifar_speedup = 1e9;
  bool all_exact = true;
  for (const auto& r : results) {
    table.row()
        .cell(r.shape.name)
        .cell(r.variant)
        .cell(op_name(r.shape.op))
        .cell(r.shape.m)
        .cell(r.shape.k)
        .cell(r.shape.n)
        .cell(r.ref_gflops, 2)
        .cell(r.blocked_gflops, 2)
        .cell(r.blocked_us > 0.0 ? r.blocked_us * 1e-3 : r.blocked_ms, 4)
        .cell(r.speedup, 2)
        .cell(r.exact ? "yes" : "NO");
    if (r.shape.group == "cifar" && r.variant == active) {
      min_cifar_speedup = std::min(min_cifar_speedup, r.speedup);
    }
    all_exact = all_exact && r.exact;
  }
  std::cout << "=== kernel microbench (blocked vs reference) ===\n";
  table.print(std::cout);
  std::cout << "\nmin speedup over CIFAR-shaped GEMMs ("
            << active << "): " << min_cifar_speedup
            << "x; exact equality: " << (all_exact ? "yes" : "NO") << "\n";

  std::string json_results = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    obs::JsonObjectWriter w;
    w.begin();
    w.field("case", r.shape.name);
    w.field("group", r.shape.group);
    w.field("variant", r.variant);
    w.field("op", op_name(r.shape.op));
    w.field("m", static_cast<std::uint64_t>(r.shape.m));
    w.field("k", static_cast<std::uint64_t>(r.shape.k));
    w.field("n", static_cast<std::uint64_t>(r.shape.n));
    w.field("ref_gflops", r.ref_gflops);
    w.field("blocked_gflops", r.blocked_gflops);
    w.field("speedup", r.speedup);
    w.field("exact_match", r.exact);
    if (r.blocked_ms > 0.0) {
      w.field("ref_ms", r.ref_ms);
      w.field("blocked_ms", r.blocked_ms);
    }
    if (r.blocked_us > 0.0) {
      w.field("ref_us", r.ref_us);
      w.field("blocked_us", r.blocked_us);
    }
    if (i != 0) json_results += ',';
    json_results += w.end();
  }
  json_results += ']';

  obs::JsonObjectWriter w;
  w.begin();
  w.field("bench", "kernels");
  w.field("min_ms", min_ms);
  w.field("active_variant", active);
  w.field("min_cifar_speedup", min_cifar_speedup);
  w.field("all_exact", all_exact);
  w.raw_field("hardware", obs::hardware_json());
  w.raw_field("results", json_results);

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << w.end() << "\n";
  std::cout << "results written to " << out_path << "\n";
  return all_exact ? 0 : 1;
}
