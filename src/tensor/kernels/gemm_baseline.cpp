// Baseline GEMM variant: the 4x8 register tile on 128-bit SSE2 vectors,
// which every x86-64 CPU has (a scalar tile elsewhere), and the
// elementwise, optimiser and int8 loops 4 floats wide. It is the fallback
// the dispatcher picks when the CPU has no AVX2 or no FMA, and the
// yardstick the wider variants are measured against. Built with -O3
// -ffp-contract=off only: SSE2 has no fused multiply-add, so the chain
// steps' fmadd calls libm's fmaf lane by lane (the same single rounding,
// only slowly).
#include "tensor/kernels/gemm_driver.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mach::tensor::kernels::detail {

namespace {

#if defined(__SSE2__)
struct Sse2 {
  using V = __m128;
  static constexpr std::size_t kW = 4;
  static MACH_INLINE V zero() { return _mm_setzero_ps(); }
  static MACH_INLINE V load(const float* p) { return _mm_loadu_ps(p); }
  static MACH_INLINE void store(float* p, V v) { _mm_storeu_ps(p, v); }
  static MACH_INLINE V bcast(float x) { return _mm_set1_ps(x); }
  static MACH_INLINE V add(V a, V b) { return _mm_add_ps(a, b); }
  static MACH_INLINE V sub(V a, V b) { return _mm_sub_ps(a, b); }
  static MACH_INLINE V mul(V a, V b) { return _mm_mul_ps(a, b); }
  // a * b + c rounded once, lane by lane.
  static MACH_INLINE V fmadd(V a, V b, V c) {
    alignas(16) float x[kW], y[kW], z[kW];
    _mm_store_ps(x, a);
    _mm_store_ps(y, b);
    _mm_store_ps(z, c);
    for (std::size_t l = 0; l < kW; ++l) {
      z[l] = __builtin_fmaf(x[l], y[l], z[l]);
    }
    return _mm_load_ps(z);
  }
  static MACH_INLINE V abs(V v) {
    return _mm_and_ps(v, _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff)));
  }
  // x > 0 ? g : +0, lane by lane.
  static MACH_INLINE V select_positive(V x, V g) {
    return _mm_and_ps(_mm_cmpgt_ps(x, _mm_setzero_ps()), g);
  }
  // The first `count` lanes (1..4). SSE2 has no masked loads (and only a
  // non-temporal masked store), so a fringe is copied into a zero-padded
  // register, and back, with 4- and 8-byte accesses of just those lanes.
  static MACH_INLINE V load_n(const float* p, std::size_t count) {
    if (count == 1) return _mm_load_ss(p);
    if (count >= kW) return load(p);
    const V lo = _mm_loadl_pi(_mm_setzero_ps(), reinterpret_cast<const __m64*>(p));
    return count == 2 ? lo : _mm_movelh_ps(lo, _mm_load_ss(p + 2));
  }
  static MACH_INLINE void store_n(float* p, V v, std::size_t count) {
    if (count >= kW) {
      store(p, v);
    } else if (count == 1) {
      _mm_store_ss(p, v);
    } else {
      _mm_storel_pi(reinterpret_cast<__m64*>(p), v);
      if (count == 3) _mm_store_ss(p + 2, _mm_movehl_ps(v, v));
    }
  }
  // r[j] becomes element j of the four rows passed in (lane l: row l).
  static MACH_INLINE void transpose(V (&r)[kW]) {
    _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]);
  }
  // maxps: a > b ? a : b, lane by lane.
  static MACH_INLINE V max(V a, V b) { return _mm_max_ps(a, b); }
  // Lane-wise 0..3: the first of r0, r1, r2 equal to p, else 3, as int32
  // (all-ones "not equal" lanes summed and negated).
  static MACH_INLINE V pool_code(V r0, V r1, V r2, V p) {
    const auto ne = [p](V r) { return _mm_castps_si128(_mm_cmpneq_ps(r, p)); };
    const __m128i n0 = ne(r0);
    const __m128i n01 = _mm_and_si128(n0, ne(r1));
    const __m128i n012 = _mm_and_si128(n01, ne(r2));
    return _mm_castsi128_ps(_mm_sub_epi32(
        _mm_setzero_si128(), _mm_add_epi32(_mm_add_epi32(n0, n01), n012)));
  }
  // The low byte of each of the first `count` int32 lanes (values 0..255).
  static MACH_INLINE void store_bytes(std::uint8_t* p, V v, std::size_t count) {
    const __m128i words =
        _mm_packs_epi32(_mm_castps_si128(v), _mm_setzero_si128());
    const int bytes = _mm_cvtsi128_si32(_mm_packus_epi16(words, words));
    if (count == kW) {
      __builtin_memcpy(p, &bytes, kW);
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      p[i] = static_cast<std::uint8_t>(bytes >> (8 * i));
    }
  }
  // The int8 codec's lanes. round_half_away: t = trunc(y) (cvttps2dq), plus
  // the sign of y where |y - t| >= 0.5. For |y| < 2^23 both t and y - t are
  // exact, so this is std::lround. A NaN lane converts to INT32_MIN (the
  // ISA's "integer indefinite"), which the saturating packs clamp to -127.
  using I = __m128i;
  static MACH_INLINE I round_half_away(V y) {
    const __m128i t = _mm_cvttps_epi32(y);
    const __m128 frac = _mm_sub_ps(y, _mm_cvtepi32_ps(t));
    const __m128i away =
        _mm_castps_si128(_mm_cmpge_ps(abs(frac), _mm_set1_ps(0.5f)));
    // ±1 with the sign of y: (y's sign bit smeared) | 1.
    const __m128i unit = _mm_or_si128(_mm_srai_epi32(_mm_castps_si128(y), 31),
                                      _mm_set1_epi32(1));
    return _mm_add_epi32(t, _mm_and_si128(away, unit));
  }
  // int32 -> int16 with saturation, clamp to ±127, int16 -> int8.
  static MACH_INLINE __m128i clamp_words(__m128i w) {
    return _mm_min_epi16(_mm_max_epi16(w, _mm_set1_epi16(-127)),
                         _mm_set1_epi16(127));
  }
  static MACH_INLINE void store_int8x4(std::uint8_t* p, const I (&q)[4]) {
    const __m128i w01 = clamp_words(_mm_packs_epi32(q[0], q[1]));
    const __m128i w23 = clamp_words(_mm_packs_epi32(q[2], q[3]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm_packs_epi16(w01, w23));
  }
  static MACH_INLINE void store_int8_n(std::uint8_t* p, I q, std::size_t count) {
    const __m128i w = clamp_words(_mm_packs_epi32(q, q));
    const int bytes = _mm_cvtsi128_si32(_mm_packs_epi16(w, w));
    if (count == kW) {
      __builtin_memcpy(p, &bytes, kW);
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      p[i] = static_cast<std::uint8_t>(bytes >> (8 * i));
    }
  }
  // Sixteen bytes at once: each sign-extended through int16 by unpacking
  // with its sign mask.
  static MACH_INLINE void load_int8x4(const std::uint8_t* p, V (&v)[4]) {
    const __m128i zero = _mm_setzero_si128();
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i b_sign = _mm_cmpgt_epi8(zero, b);
    const __m128i w_lo = _mm_unpacklo_epi8(b, b_sign);
    const __m128i w_hi = _mm_unpackhi_epi8(b, b_sign);
    const __m128i lo_sign = _mm_cmpgt_epi16(zero, w_lo);
    const __m128i hi_sign = _mm_cmpgt_epi16(zero, w_hi);
    v[0] = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w_lo, lo_sign));
    v[1] = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w_lo, lo_sign));
    v[2] = _mm_cvtepi32_ps(_mm_unpacklo_epi16(w_hi, hi_sign));
    v[3] = _mm_cvtepi32_ps(_mm_unpackhi_epi16(w_hi, hi_sign));
  }
  // Four bytes: each to the top of its int32 lane, then an arithmetic
  // shift sign-extends it.
  static MACH_INLINE V load_int8(const std::uint8_t* p) {
    int bytes;
    __builtin_memcpy(&bytes, p, kW);
    const __m128i zero = _mm_setzero_si128();
    const __m128i top = _mm_unpacklo_epi16(
        zero, _mm_unpacklo_epi8(zero, _mm_cvtsi32_si128(bytes)));
    return _mm_cvtepi32_ps(_mm_srai_epi32(top, 24));
  }
};
using BaselineIsa = Sse2;
#else
struct Scalar {
  using V = float;
  static constexpr std::size_t kW = 1;
  static MACH_INLINE V zero() { return 0.0f; }
  static MACH_INLINE V load(const float* p) { return *p; }
  static MACH_INLINE void store(float* p, V v) { *p = v; }
  static MACH_INLINE V bcast(float x) { return x; }
  static MACH_INLINE V add(V a, V b) { return a + b; }
  static MACH_INLINE V sub(V a, V b) { return a - b; }
  static MACH_INLINE V mul(V a, V b) { return a * b; }
  static MACH_INLINE V fmadd(V a, V b, V c) { return __builtin_fmaf(a, b, c); }
  static MACH_INLINE V abs(V v) { return __builtin_fabsf(v); }
  static MACH_INLINE V select_positive(V x, V g) { return x > 0.0f ? g : 0.0f; }
  static MACH_INLINE V load_n(const float* p, std::size_t) { return *p; }
  static MACH_INLINE void store_n(float* p, V v, std::size_t) { *p = v; }
  static MACH_INLINE void transpose(V (&)[kW]) {}
  static MACH_INLINE V max(V a, V b) { return a > b ? a : b; }
  // 0..3: the first of r0, r1, r2 equal to p, else 3, as int32 bits.
  static MACH_INLINE V pool_code(V r0, V r1, V r2, V p) {
    const unsigned n0 = r0 != p, n1 = r1 != p, n2 = r2 != p;
    return __builtin_bit_cast(float, n0 + (n0 & n1) + (n0 & n1 & n2));
  }
  static MACH_INLINE void store_bytes(std::uint8_t* p, V v, std::size_t) {
    *p = static_cast<std::uint8_t>(__builtin_bit_cast(unsigned, v));
  }
  // The int8 codec's rule: std::lround's half away from zero, NaN -> -127.
  using I = long;
  static MACH_INLINE I round_half_away(V y) {
    return y != y ? -127L : __builtin_lroundf(y);
  }
  static MACH_INLINE void store_int8_n(std::uint8_t* p, I q, std::size_t) {
    const I clamped = q < -127L ? -127L : (q > 127L ? 127L : q);
    *p = static_cast<std::uint8_t>(static_cast<std::int8_t>(clamped));
  }
  static MACH_INLINE void store_int8x4(std::uint8_t* p, const I (&q)[4]) {
    for (std::size_t k = 0; k < 4; ++k) store_int8_n(p + k, q[k], 1);
  }
  static MACH_INLINE V load_int8(const std::uint8_t* p) {
    return static_cast<float>(static_cast<std::int8_t>(*p));
  }
  static MACH_INLINE void load_int8x4(const std::uint8_t* p, V (&v)[4]) {
    for (std::size_t k = 0; k < 4; ++k) v[k] = load_int8(p + k);
  }
};
using BaselineIsa = Scalar;
#endif

#if defined(__SSE2__)
/// Eight lane norms in four 128-bit accumulators (two lanes each): each
/// 4x4 block of four rows is transposed so that vector j holds element
/// i + j of those rows, and its halves are widened with cvtps2pd, squared
/// and added — lane l adds row l's squares in element order, squared_norm's
/// chain.
void baseline_squared_norms(std::size_t lanes, std::size_t n, const float* x,
                            std::size_t stride, double* out) {
  const float* row[kMaxNormLanes];
  norm_rows(lanes, x, stride, row);
  __m128d acc[kMaxNormLanes / 2];
  for (auto& a : acc) a = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < 2; ++g) {
      __m128 r0 = _mm_loadu_ps(row[4 * g] + i);
      __m128 r1 = _mm_loadu_ps(row[4 * g + 1] + i);
      __m128 r2 = _mm_loadu_ps(row[4 * g + 2] + i);
      __m128 r3 = _mm_loadu_ps(row[4 * g + 3] + i);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      const __m128 cols[4] = {r0, r1, r2, r3};
#pragma GCC unroll 4
      for (const __m128 col : cols) {
        const __m128d vl = _mm_cvtps_pd(col);
        const __m128d vh = _mm_cvtps_pd(_mm_movehl_ps(col, col));
        acc[2 * g] = _mm_add_pd(acc[2 * g], _mm_mul_pd(vl, vl));
        acc[2 * g + 1] = _mm_add_pd(acc[2 * g + 1], _mm_mul_pd(vh, vh));
      }
    }
  }
  alignas(16) double sums[kMaxNormLanes];
  for (std::size_t h = 0; h < kMaxNormLanes / 2; ++h) {
    _mm_store_pd(sums + 2 * h, acc[h]);
  }
  finish_norms(lanes, n, i, row, sums, out);
}
#else
/// One serial chain per lane.
void baseline_squared_norms(std::size_t lanes, std::size_t n, const float* x,
                            std::size_t stride, double* out) {
  const float* row[kMaxNormLanes];
  norm_rows(lanes, x, stride, row);
  const double sums[kMaxNormLanes] = {};
  finish_norms(lanes, n, 0, row, sums, out);
}
#endif

struct BaselineConfig {
  using Isa = BaselineIsa;
  static constexpr std::size_t kMR = 4;
  static constexpr std::size_t kNV = 8 / Isa::kW;
  static constexpr std::size_t kKC = 256;
  static constexpr std::size_t kMC = 64;
  static constexpr std::size_t kNC = 256;
  static constexpr std::size_t kNtNV = 4 / Isa::kW;
  static constexpr std::size_t kNtNR = 8;
  static constexpr std::size_t kFwdChannels = 2;
  static constexpr std::size_t kFwdWindows = 1;
  static constexpr std::size_t kDwChannels = 2;
  static constexpr std::size_t kDwTaps = 4;
  static constexpr auto squared_norms = &baseline_squared_norms;
};

}  // namespace

constinit const GemmVariant kBaselineVariant =
    GemmKernels<BaselineConfig>::variant(common::GemmIsa::kBaseline);

}  // namespace mach::tensor::kernels::detail
