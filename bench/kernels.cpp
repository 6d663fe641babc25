// Kernel-layer microbench: blocked GEMM vs the retained reference kernels
// over the paper-shaped sizes (every conv/dense GEMM of the MNIST cnn2 and
// CIFAR-10 cnn3 forward and backward passes, plus a square point), with a
// per-shape exact-equality spot check. Every GEMM variant this CPU can run
// (baseline, AVX2, AVX-512) gets its own row per shape; the "variant" field
// is part of each row's identity for bench_diff. Layer rows follow at the
// end-to-end benchmark's shapes (16 images): the minibatch conv backward per
// variant, with and without the input gradient, against the per-image
// reference composition, and 2x2 max pooling against the seed loops (not
// per variant: pooling is plain C++). Layer rows also carry ms per call.
// Codec rows time the int8 transcode of a whole model message (the fleet MLP
// and the CIFAR CNN) against the codec's scalar reference, in us per call;
// their variant is the codec's compile-time path (sse2 or scalar).
// Results are printed as a table and written as BENCH_kernels.json.
//
//   ./kernels [--min_ms 150] [--out BENCH_kernels.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "comm/codec_impl.h"
#include "common/cli.h"
#include "common/cpu_isa.h"
#include "common/rng.h"
#include "common/table.h"
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
  Nn, Tn, Nt, ConvBwd, ConvBwdNoDx, PoolFwd, PoolBwd, Int8Encode, Int8Decode
};

struct Case {
  std::string name;   // e.g. "cifar_conv2_fwd"
  std::string group;  // "mnist", "cifar" or "square"
  Op op;
  std::size_t m, k, n;
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
    case Op::ConvBwd: return "conv_bwd";
    case Op::ConvBwdNoDx: return "conv_bwd_nodx";
    case Op::PoolFwd: return "pool_fwd";
    case Op::PoolBwd: return "pool_bwd";
    case Op::Int8Encode: return "int8_encode";
    case Op::Int8Decode: return "int8_decode";
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

/// Doubles the repetition count of `call` until a batch takes min_ms;
/// returns seconds per call from the final batch (after one warm-up call).
template <class F>
double time_call(const F& call, double min_ms) {
  call();
  for (std::size_t reps = 1;; reps *= 2) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) call();
    const double elapsed = seconds_since(start);
    if (elapsed * 1000.0 >= min_ms || reps > (1u << 28)) {
      return elapsed / static_cast<double>(reps);
    }
  }
}

/// A conv layer of the benchmark models: channels -> out_c over h x h
/// images, 3x3 kernel, pad 1.
struct ConvLayer {
  std::string name;
  std::size_t channels, out_c, h;
};

/// Gradients of a 16-image conv backward: the retained per-image reference
/// composition (zero fills, ref::im2col, ref::gemm_nt accumulate, and with
/// dx ref::gemm_tn + ref::col2im, then the bias row sums).
struct ConvBackwardBench {
  static constexpr std::size_t kBatch = 16;
  kern::ConvShape shape;
  std::size_t out_c, n, patch, image;
  std::vector<float> input, weight, grad_out;
  std::vector<float> cols, gcols;

  ConvBackwardBench(const ConvLayer& l, common::Rng& rng)
      : shape{l.channels, l.h, l.h, 3, 1, 1},
        out_c(l.out_c),
        n(l.h * l.h),
        patch(l.channels * 9),
        image(l.channels * l.h * l.h),
        input(kBatch * image),
        weight(out_c * patch),
        grad_out(kBatch * out_c * n),
        cols(patch * n),
        gcols(patch * n) {
    for (auto& v : input) v = static_cast<float>(rng.normal());
    for (auto& v : weight) v = static_cast<float>(rng.normal());
    for (auto& v : grad_out) v = static_cast<float>(rng.normal());
  }

  void reference(bool dx, float* grad_images, float* dw, float* db) {
    std::fill_n(dw, out_c * patch, 0.0f);
    std::fill_n(db, out_c, 0.0f);
    if (dx) std::fill_n(grad_images, kBatch * image, 0.0f);
    for (std::size_t img = 0; img < kBatch; ++img) {
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

/// Conv-backward rows (per variant, with and without dx) and pooling rows
/// at the end-to-end benchmark's layer shapes.
void layer_rows(const std::vector<const kern::detail::GemmVariant*>& variants,
                double min_ms, common::Rng& rng, std::vector<Result>& results) {
  const std::vector<ConvLayer> convs = {
      {"bench_cifar_conv1", 3, 8, 16},  {"bench_cifar_conv2", 8, 16, 8},
      {"bench_cifar_conv3", 16, 32, 4}, {"bench_mnist_conv1", 1, 8, 12},
      {"bench_mnist_conv2", 8, 16, 6},
  };
  for (const ConvLayer& l : convs) {
    ConvBackwardBench b(l, rng);
    const std::size_t pixels = ConvBackwardBench::kBatch * b.n;
    for (bool dx : {true, false}) {
      Case c{l.name + (dx ? "_bwd" : "_bwd_nodx"), "bench",
             dx ? Op::ConvBwd : Op::ConvBwdNoDx, b.out_c, b.patch, pixels};
      std::vector<float> want_dx(dx ? pixels / b.n * b.image : 0),
          want_dw(b.out_c * b.patch), want_db(b.out_c);
      b.reference(dx, want_dx.data(), want_dw.data(), want_db.data());
      const double ref_s = time_call(
          [&] {
            b.reference(dx, want_dx.data(), want_dw.data(), want_db.data());
          },
          min_ms);
      // dW is one GEMM of 2 m k n flops; dX is a second.
      const double flops = (dx ? 4.0 : 2.0) * static_cast<double>(c.m) *
                           static_cast<double>(c.k) * static_cast<double>(c.n);
      for (const auto* variant : variants) {
        std::vector<float> got_dx(want_dx.size()), got_dw(want_dw.size()),
            got_db(want_db.size());
        std::vector<float> scratch(kern::detail::conv_backward_scratch(
            *variant, ConvBackwardBench::kBatch, b.shape, b.out_c, dx));
        const auto run = [&] {
          kern::detail::conv_backward(
              *variant, b.input.data(), ConvBackwardBench::kBatch, b.shape,
              {b.weight.data(), b.out_c, b.patch}, b.grad_out.data(),
              dx ? got_dx.data() : nullptr, got_dw.data(), got_db.data(),
              scratch.data());
        };
        run();
        Result r;
        r.shape = c;
        r.variant = common::gemm_isa_name(variant->isa);
        r.exact = got_dx == want_dx && got_dw == want_dw && got_db == want_db;
        const double blk_s = time_call(run, min_ms);
        r.ref_gflops = flops / ref_s * 1e-9;
        r.blocked_gflops = flops / blk_s * 1e-9;
        r.speedup = ref_s / blk_s;
        r.ref_ms = ref_s * 1e3;
        r.blocked_ms = blk_s * 1e3;
        results.push_back(r);
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
    const std::size_t batch = ConvBackwardBench::kBatch;
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
      const double ref_s = time_call(reference, min_ms);
      const double blk_s = time_call(run, min_ms);
      r.speedup = ref_s / blk_s;
      r.ref_ms = ref_s * 1e3;
      r.blocked_ms = blk_s * 1e3;
      results.push_back(r);
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
      const double ref_s = time_call(reference, min_ms);
      const double prod_s = time_call(run, min_ms);
      r.speedup = ref_s / prod_s;
      r.ref_us = ref_s * 1e6;
      r.blocked_us = prod_s * 1e6;
      results.push_back(r);
    }
  }
}

/// Times one implementation: doubles the repetition count until the batch
/// takes at least min_ms, then reports seconds per call from the final batch.
double time_impl(Op op, const kern::detail::GemmVariant* variant,
                 const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, double min_ms) {
  run_op(op, variant, a, b, c, m, k, n);  // warm-up (pack buffers, caches)
  for (std::size_t reps = 1;; reps *= 2) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) run_op(op, variant, a, b, c, m, k, n);
    const double elapsed = seconds_since(start);
    if (elapsed * 1000.0 >= min_ms || reps > (1u << 28)) {
      return elapsed / static_cast<double>(reps);
    }
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

  // GEMM shapes of the paper's models (batch 32 for the dense layers):
  //   mnist cnn2 on 1x28x28, cifar cnn3 on 3x32x32 (see nn/factory.cpp).
  // Forward = nn, weight-gradient = nt, column-gradient = tn.
  const std::vector<Case> cases = {
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
    run_op(c.op, nullptr, a.data(), b.data(), c_ref.data(), c.m, c.k, c.n);
    const double ref_s = time_impl(c.op, nullptr, a.data(), b.data(),
                                   c_ref.data(), c.m, c.k, c.n, min_ms);
    const double flops =
        2.0 * static_cast<double>(c.m) * static_cast<double>(c.k) *
        static_cast<double>(c.n);
    for (const auto* variant : variants) {
      Result r;
      r.shape = c;
      r.variant = common::gemm_isa_name(variant->isa);
      run_op(c.op, variant, a.data(), b.data(), c_blk.data(), c.m, c.k, c.n);
      r.exact = c_ref == c_blk;
      const double blk_s = time_impl(c.op, variant, a.data(), b.data(),
                                     c_blk.data(), c.m, c.k, c.n, min_ms);
      r.ref_gflops = flops / ref_s * 1e-9;
      r.blocked_gflops = flops / blk_s * 1e-9;
      r.speedup = ref_s / blk_s;
      results.push_back(r);
    }
  }

  layer_rows(variants, min_ms, rng, results);
  codec_rows(min_ms, rng, results);

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
