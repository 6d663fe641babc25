// The lane-independent loops of the kernel layer, written once over a
// variant's vector traits and instantiated by each ISA translation unit
// (through GemmKernels<Cfg>::variant() in gemm_driver.h), so they run 4, 8
// or 16 floats wide:
//
//   * the elementwise and optimiser loops behind kernels::relu, relu_bwd,
//     axpy, axpy_delta, scale, scale_copy, vadd, add_bias_rows, col_sums,
//     sgd_step and sgd_momentum_step;
//   * the int8 codec's three vector loops (kernels::int8_max_abs,
//     int8_quantise, int8_dequantise).
//
// Every element's value is the naive loop's: the same operations on the
// same operands in the same order, with separate multiply and add — never
// the traits' fmadd, which only the GEMM and convolution chains use, and
// the ISA TUs build with -ffp-contract=off, so the compiler fuses nothing
// either. col_sums keeps each column's sum in a
// register across the rows, in increasing row order, which is the naive
// chain. So every variant's entries are bitwise interchangeable.
//
// A vector's fringe (the last n mod W elements) runs the same operations on
// the traits' load_n/store_n, which neither read nor write past the first
// `count` lanes; the int8 loops run blocks of four vectors (SSE2 packs and
// unpacks 16 bytes at once), then single ones.
//
// Internal linkage only, and no std:: templates: see gemm_driver.h's
// one-definition rule.
#pragma once

#include <cstddef>
#include <cstdint>

#define MACH_INLINE inline __attribute__((always_inline))

namespace mach::tensor::kernels::detail {
namespace {

/// Isa provides, besides the GEMM traits (V, kW, zero, load, store, bcast,
/// add, mul, max, load_n, store_n):
///   sub, abs             lane-wise a - b and |a|
///   select_positive      x > 0 ? g : +0, lane by lane (NaN x gives +0)
///   I, round_half_away   an int32 vector, and y rounded half away from
///                        zero for |y| < 2^23, INT32_MIN for a NaN lane
///   store_int8x4         four I vectors clamped to [-127, 127] as 4 kW
///                        consecutive bytes
///   store_int8_n         the first count lanes of one I vector, clamped
///   load_int8            kW signed bytes as floats (exact)
///   load_int8x4          4 kW signed bytes as four such vectors
template <class Isa>
struct VectorLoops {
  using V = typename Isa::V;
  using I = typename Isa::I;
  static constexpr std::size_t kW = Isa::kW;

  /// All kW lanes of a vector.
  struct Whole {
    static MACH_INLINE V load(const float* p) { return Isa::load(p); }
    static MACH_INLINE void store(float* p, V v) { Isa::store(p, v); }
  };
  /// The first `count` (< kW) lanes.
  struct Part {
    std::size_t count;
    MACH_INLINE V load(const float* p) const { return Isa::load_n(p, count); }
    MACH_INLINE void store(float* p, V v) const { Isa::store_n(p, v, count); }
  };

  /// step(i, lanes) for every vector of [begin, n): whole vectors, then the
  /// fringe.
  template <class Step>
  static MACH_INLINE void sweep(std::size_t begin, std::size_t n,
                                const Step& step) {
    std::size_t i = begin;
    for (; i + kW <= n; i += kW) step(i, Whole{});
    if (i < n) step(i, Part{n - i});
  }

  static void relu(std::size_t n, const float* x, float* y) {
    // maxps(x, 0) is x > 0 ? x : +0, the naive rule (NaN and -0 give +0).
    sweep(0, n, [=](std::size_t i, auto lanes) {
      lanes.store(y + i, Isa::max(lanes.load(x + i), Isa::zero()));
    });
  }

  static void relu_bwd(std::size_t n, const float* x, const float* gy,
                       float* gx) {
    sweep(0, n, [=](std::size_t i, auto lanes) {
      lanes.store(gx + i,
                  Isa::select_positive(lanes.load(x + i), lanes.load(gy + i)));
    });
  }

  static void axpy(std::size_t n, float alpha, const float* x, float* y) {
    const V a = Isa::bcast(alpha);
    sweep(0, n, [=](std::size_t i, auto lanes) {
      lanes.store(y + i, Isa::add(lanes.load(y + i),
                                  Isa::mul(a, lanes.load(x + i))));
    });
  }

  static void axpy_delta(std::size_t n, float alpha, const float* x,
                         const float* base, float* y) {
    const V a = Isa::bcast(alpha);
    sweep(0, n, [=](std::size_t i, auto lanes) {
      const V delta = Isa::sub(lanes.load(x + i), lanes.load(base + i));
      lanes.store(y + i, Isa::add(lanes.load(y + i), Isa::mul(a, delta)));
    });
  }

  static void scale(std::size_t n, float alpha, float* x) {
    const V a = Isa::bcast(alpha);
    sweep(0, n, [=](std::size_t i, auto lanes) {
      lanes.store(x + i, Isa::mul(lanes.load(x + i), a));
    });
  }

  static void scale_copy(std::size_t n, float alpha, const float* x,
                         float* y) {
    const V a = Isa::bcast(alpha);
    sweep(0, n, [=](std::size_t i, auto lanes) {
      lanes.store(y + i, Isa::mul(a, lanes.load(x + i)));
    });
  }

  static void vadd(std::size_t n, const float* x, float* y) {
    sweep(0, n, [=](std::size_t i, auto lanes) {
      lanes.store(y + i, Isa::add(lanes.load(y + i), lanes.load(x + i)));
    });
  }

  static void add_bias_rows(std::size_t m, std::size_t n, const float* bias,
                            float* x) {
    for (std::size_t r = 0; r < m; ++r) {
      float* row = x + r * n;
      sweep(0, n, [=](std::size_t j, auto lanes) {
        lanes.store(row + j,
                    Isa::add(lanes.load(row + j), lanes.load(bias + j)));
      });
    }
  }

  static void col_sums(std::size_t m, std::size_t n, const float* x,
                       float* out, bool accumulate) {
    // Without accumulate the naive loop starts each sum at +0 (so a first
    // row of -0 still sums to +0); so does the register.
    sweep(0, n, [=](std::size_t j, auto lanes) {
      V sum = accumulate ? lanes.load(out + j) : Isa::zero();
      for (std::size_t r = 0; r < m; ++r) {
        sum = Isa::add(sum, lanes.load(x + r * n + j));
      }
      lanes.store(out + j, sum);
    });
  }

  static void sgd_step(std::size_t n, float lr, float weight_decay,
                       const float* grad, float* value) {
    const V rate = Isa::bcast(lr), decay = Isa::bcast(weight_decay);
    sweep(0, n, [=](std::size_t j, auto lanes) {
      const V v = lanes.load(value + j);
      const V g = Isa::add(lanes.load(grad + j), Isa::mul(decay, v));
      lanes.store(value + j, Isa::sub(v, Isa::mul(rate, g)));
    });
  }

  static void sgd_momentum_step(std::size_t n, float lr, float momentum,
                                float weight_decay, const float* grad,
                                float* velocity, float* value) {
    const V rate = Isa::bcast(lr), mom = Isa::bcast(momentum),
            decay = Isa::bcast(weight_decay);
    sweep(0, n, [=](std::size_t j, auto lanes) {
      const V v = lanes.load(value + j);
      const V g = Isa::add(lanes.load(grad + j), Isa::mul(decay, v));
      const V vel = Isa::add(Isa::mul(mom, lanes.load(velocity + j)), g);
      lanes.store(velocity + j, vel);
      lanes.store(value + j, Isa::sub(v, Isa::mul(rate, vel)));
    });
  }

  /// max|x| (0 for n == 0). maxps(|x|, acc) keeps acc for a NaN lane, as
  /// the scalar `if (a > max)` skips it, and fringe lanes load as +0; max
  /// is exact, so neither the four accumulators nor the lane order can
  /// change the result.
  static float int8_max_abs(std::size_t n, const float* x) {
    V acc[4] = {Isa::zero(), Isa::zero(), Isa::zero(), Isa::zero()};
    std::size_t i = 0;
    for (; i + 4 * kW <= n; i += 4 * kW) {
#pragma GCC unroll 4
      for (std::size_t k = 0; k < 4; ++k) {
        acc[k] = Isa::max(Isa::abs(Isa::load(x + i + k * kW)), acc[k]);
      }
    }
    sweep(i, n, [&](std::size_t j, auto lanes) {
      acc[0] = Isa::max(Isa::abs(lanes.load(x + j)), acc[0]);
    });
    float lane[kW];
    Isa::store(lane, Isa::max(Isa::max(acc[0], acc[1]),
                              Isa::max(acc[2], acc[3])));
    float max_abs = 0.0f;
    for (std::size_t l = 0; l < kW; ++l) {
      if (lane[l] > max_abs) max_abs = lane[l];
    }
    return max_abs;
  }

  /// q[i] = clamp(round_half_away(x[i] · inv_scale), ±127), NaN → -127,
  /// for a finite inv_scale. For |y| < 2^23 round_half_away is exactly
  /// std::lround's rule (at 2^23 and up y is an integer and clamps), and
  /// the codec's scale keeps |y| below 191.
  static void int8_quantise(std::size_t n, const float* x, float inv_scale,
                            std::uint8_t* q) {
    const V inv = Isa::bcast(inv_scale);
    std::size_t i = 0;
    for (; i + 4 * kW <= n; i += 4 * kW) {
      I codes[4];
#pragma GCC unroll 4
      for (std::size_t k = 0; k < 4; ++k) {
        codes[k] = Isa::round_half_away(Isa::mul(Isa::load(x + i + k * kW), inv));
      }
      Isa::store_int8x4(q + i, codes);
    }
    for (; i < n; i += kW) {
      const std::size_t count = n - i < kW ? n - i : kW;
      Isa::store_int8_n(
          q + i, Isa::round_half_away(Isa::mul(Isa::load_n(x + i, count), inv)),
          count);
    }
  }

  /// out[i] = q[i] · scale, the signed byte converted exactly and then one
  /// multiply, as the scalar loop does.
  static void int8_dequantise(std::size_t n, const std::uint8_t* q,
                              float scale, float* out) {
    const V s = Isa::bcast(scale);
    std::size_t i = 0;
    for (; i + 4 * kW <= n; i += 4 * kW) {
      V v[4];
      Isa::load_int8x4(q + i, v);
#pragma GCC unroll 4
      for (std::size_t k = 0; k < 4; ++k) {
        Isa::store(out + i + k * kW, Isa::mul(v[k], s));
      }
    }
    for (; i + kW <= n; i += kW) {
      Isa::store(out + i, Isa::mul(Isa::load_int8(q + i), s));
    }
    if (i < n) {
      std::uint8_t fringe[kW] = {};
      for (std::size_t l = 0; l < n - i; ++l) fringe[l] = q[i + l];
      Isa::store_n(out + i, Isa::mul(Isa::load_int8(fringe), s), n - i);
    }
  }
};

}  // namespace
}  // namespace mach::tensor::kernels::detail
