// AVX2 GEMM variant: 256-bit vectors, built with -mavx2 -O3
// -ffp-contract=off (no -mfma: multiply and add stay separate roundings).
// Only reached when cpuid reports AVX2; see gemm_driver.h for the rules
// this TU must follow so none of its code leaks into other callers.
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
  static MACH_INLINE V mul(V a, V b) { return _mm256_mul_ps(a, b); }
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
