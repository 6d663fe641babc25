// AVX2 variant (GEMMs, convolutions, lane norms and the elementwise,
// optimiser and int8 loops): 256-bit vectors, built with -mavx2 -mfma -O3
// -ffp-contract=off. -mfma is for the GEMM and convolution chain steps'
// explicit vfmadd (fmadd below); -ffp-contract=off keeps every other
// multiply and add separately rounded. Only reached when cpuid reports AVX2
// and FMA; see gemm_driver.h for the rules this TU must follow so none of
// its code leaks into other callers.
#include <immintrin.h>

#include "tensor/kernels/gemm_driver.h"

namespace mach::tensor::kernels::detail {

namespace {

struct Avx2 {
  using V = __m256;
  static constexpr std::size_t kW = 8;
  static MACH_INLINE V zero() { return _mm256_setzero_ps(); }
  static MACH_INLINE V load(const float* p) { return _mm256_loadu_ps(p); }
  static MACH_INLINE void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static MACH_INLINE V bcast(float x) { return _mm256_set1_ps(x); }
  static MACH_INLINE V add(V a, V b) { return _mm256_add_ps(a, b); }
  static MACH_INLINE V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static MACH_INLINE V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  // a * b + c, rounded once.
  static MACH_INLINE V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static MACH_INLINE V abs(V v) {
    return _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
  }
  // x > 0 ? g : +0, lane by lane.
  static MACH_INLINE V select_positive(V x, V g) {
    return _mm256_and_ps(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ), g);
  }
  // The first `count` lanes (1..8); masked-off lanes are not read or
  // written, so the access may end anywhere.
  static MACH_INLINE __m256i mask(std::size_t count) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static MACH_INLINE V load_n(const float* p, std::size_t count) {
    return _mm256_maskload_ps(p, mask(count));
  }
  static MACH_INLINE void store_n(float* p, V v, std::size_t count) {
    _mm256_maskstore_ps(p, mask(count), v);
  }
  // r[j] becomes element j of the eight rows passed in (lane l: row l).
  static MACH_INLINE void transpose(V (&r)[kW]) { transpose8(r); }
  // maxps: a > b ? a : b, lane by lane.
  static MACH_INLINE V max(V a, V b) { return _mm256_max_ps(a, b); }
  // Lane-wise 0..3: the first of r0, r1, r2 equal to p, else 3, as int32
  // (all-ones "not equal" lanes summed and negated).
  static MACH_INLINE V pool_code(V r0, V r1, V r2, V p) {
    const auto ne = [p](V r) {
      return _mm256_castps_si256(_mm256_cmp_ps(r, p, _CMP_NEQ_UQ));
    };
    const __m256i n0 = ne(r0);
    const __m256i n01 = _mm256_and_si256(n0, ne(r1));
    const __m256i n012 = _mm256_and_si256(n01, ne(r2));
    return _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_setzero_si256(),
        _mm256_add_epi32(_mm256_add_epi32(n0, n01), n012)));
  }
  // The low byte of each of the first `count` int32 lanes (values 0..255).
  static MACH_INLINE void store_bytes(std::uint8_t* p, V v, std::size_t count) {
    const __m256i x = _mm256_castps_si256(v);
    const __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(x),
                                          _mm256_extracti128_si256(x, 1));
    const __m128i bytes = _mm_packus_epi16(words, words);
    if (count == kW) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(p), bytes);
      return;
    }
    alignas(16) std::uint8_t all[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(all), bytes);
    for (std::size_t i = 0; i < count; ++i) p[i] = all[i];
  }
  // The int8 codec's lanes, as on SSE2 (gemm_baseline.cpp): trunc(y) plus
  // the sign of y where |y - trunc(y)| >= 0.5; NaN lanes give INT32_MIN.
  using I = __m256i;
  static MACH_INLINE I round_half_away(V y) {
    const __m256i t = _mm256_cvttps_epi32(y);
    const __m256 frac = _mm256_sub_ps(y, _mm256_cvtepi32_ps(t));
    const __m256i away = _mm256_castps_si256(
        _mm256_cmp_ps(abs(frac), _mm256_set1_ps(0.5f), _CMP_GE_OQ));
    const __m256i unit = _mm256_or_si256(
        _mm256_srai_epi32(_mm256_castps_si256(y), 31), _mm256_set1_epi32(1));
    return _mm256_add_epi32(t, _mm256_and_si256(away, unit));
  }
  // Saturating packs work within each 128-bit half, so the four vectors'
  // bytes come out as dwords q0.lo q1.lo q2.lo q3.lo | q0.hi ... q3.hi and
  // one dword permute restores their order.
  static MACH_INLINE void store_int8x4(std::uint8_t* p, const I (&q)[4]) {
    const __m256i lo = _mm256_set1_epi16(-127), hi = _mm256_set1_epi16(127);
    const __m256i w01 = _mm256_min_epi16(
        _mm256_max_epi16(_mm256_packs_epi32(q[0], q[1]), lo), hi);
    const __m256i w23 = _mm256_min_epi16(
        _mm256_max_epi16(_mm256_packs_epi32(q[2], q[3]), lo), hi);
    const __m256i bytes = _mm256_permutevar8x32_epi32(
        _mm256_packs_epi16(w01, w23), _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), bytes);
  }
  static MACH_INLINE void store_int8_n(std::uint8_t* p, I q, std::size_t count) {
    const __m128i words = _mm_min_epi16(
        _mm_max_epi16(_mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1)),
                      _mm_set1_epi16(-127)),
        _mm_set1_epi16(127));
    const __m128i bytes = _mm_packs_epi16(words, words);
    if (count == kW) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(p), bytes);
      return;
    }
    alignas(16) std::uint8_t all[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(all), bytes);
    for (std::size_t i = 0; i < count; ++i) p[i] = all[i];
  }
  static MACH_INLINE V load_int8(const std::uint8_t* p) {
    return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
  static MACH_INLINE void load_int8x4(const std::uint8_t* p, V (&v)[4]) {
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) v[k] = load_int8(p + k * kW);
  }
};

/// Eight lane norms in two 256-bit accumulators (lanes 0-3 and 4-7): each
/// 8x8 block is transposed so that vector j holds element i + j of every
/// row, and its halves are widened with cvtps2pd, squared and added — lane
/// l adds row l's squares in element order, squared_norm's chain.
void avx2_squared_norms(std::size_t lanes, std::size_t n, const float* x,
                        std::size_t stride, double* out) {
  const float* row[kMaxNormLanes];
  norm_rows(lanes, x, stride, row);
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kMaxNormLanes <= n; i += kMaxNormLanes) {
    __m256 col[kMaxNormLanes];
    transpose8x8(row, i, col);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kMaxNormLanes; ++j) {
      const __m256d vl = _mm256_cvtps_pd(_mm256_castps256_ps128(col[j]));
      const __m256d vh = _mm256_cvtps_pd(_mm256_extractf128_ps(col[j], 1));
      lo = _mm256_add_pd(lo, _mm256_mul_pd(vl, vl));
      hi = _mm256_add_pd(hi, _mm256_mul_pd(vh, vh));
    }
  }
  alignas(32) double sums[kMaxNormLanes];
  _mm256_store_pd(sums, lo);
  _mm256_store_pd(sums + 4, hi);
  finish_norms(lanes, n, i, row, sums, out);
}

struct Avx2Config {
  using Isa = Avx2;
  static constexpr std::size_t kMR = 4;
  static constexpr std::size_t kNV = 2;
  static constexpr std::size_t kKC = 256;
  static constexpr std::size_t kMC = 64;
  static constexpr std::size_t kNC = 256;
  static constexpr std::size_t kNtNV = 1;
  static constexpr std::size_t kNtNR = 8;
  static constexpr std::size_t kFwdChannels = 2;
  static constexpr std::size_t kFwdWindows = 1;
  static constexpr std::size_t kDwChannels = 3;
  static constexpr std::size_t kDwTaps = 4;
  static constexpr auto squared_norms = &avx2_squared_norms;
};

}  // namespace

constinit const GemmVariant kAvx2Variant =
    GemmKernels<Avx2Config>::variant(common::GemmIsa::kAvx2);

}  // namespace mach::tensor::kernels::detail
