// Baseline GEMM variant: the 4x8 register tile on 128-bit SSE2 vectors,
// which every x86-64 CPU has (a scalar tile elsewhere). It is the fallback
// the dispatcher picks when the CPU has no AVX2, and the yardstick the wider
// variants are measured against. Built with -O3 -ffp-contract=off only.
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
  static MACH_INLINE V mul(V a, V b) { return _mm_mul_ps(a, b); }
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
  static MACH_INLINE V mul(V a, V b) { return a * b; }
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
