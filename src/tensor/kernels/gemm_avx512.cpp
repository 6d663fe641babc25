// AVX-512 GEMM variant: 512-bit vectors, built with -mavx512f -mavx512vl
// -O3 -ffp-contract=off. -ffp-contract=off matters most here: AVX-512F
// includes FMA, and a contracted multiply-add would round once instead of
// twice. Only reached when cpuid reports AVX2, AVX-512F and AVX-512VL; see
// gemm_driver.h for the rules this TU must follow so none of its code leaks
// into other callers.
#include <immintrin.h>

#include "tensor/kernels/gemm_driver.h"

namespace mach::tensor::kernels::detail {

namespace {

struct Avx512 {
  using V = __m512;
  static constexpr std::size_t kW = 16;
  static MACH_INLINE V zero() { return _mm512_setzero_ps(); }
  static MACH_INLINE V load(const float* p) { return _mm512_loadu_ps(p); }
  static MACH_INLINE void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static MACH_INLINE V bcast(float x) { return _mm512_set1_ps(x); }
  static MACH_INLINE V add(V a, V b) { return _mm512_add_ps(a, b); }
  static MACH_INLINE V mul(V a, V b) { return _mm512_mul_ps(a, b); }
  // The first `count` lanes (1..16); masked-off lanes are not read or
  // written, so the access may end anywhere.
  static MACH_INLINE __mmask16 mask(std::size_t count) {
    return static_cast<__mmask16>((1u << count) - 1u);
  }
  static MACH_INLINE V load_n(const float* p, std::size_t count) {
    return _mm512_maskz_loadu_ps(mask(count), p);
  }
  static MACH_INLINE void store_n(float* p, V v, std::size_t count) {
    _mm512_mask_storeu_ps(p, mask(count), v);
  }
};

/// 256-bit lanes for the narrow gemm_nt tile (AVX-512VL gives them all 32
/// vector registers).
struct Avx512Ymm {
  using V = __m256;
  static constexpr std::size_t kW = 8;
  static MACH_INLINE V zero() { return _mm256_setzero_ps(); }
  static MACH_INLINE V load(const float* p) { return _mm256_loadu_ps(p); }
  static MACH_INLINE void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static MACH_INLINE V bcast(float x) { return _mm256_set1_ps(x); }
  static MACH_INLINE V add(V a, V b) { return _mm256_add_ps(a, b); }
  static MACH_INLINE V mul(V a, V b) { return _mm256_mul_ps(a, b); }
};

/// Eight lane norms in one 512-bit accumulator: each 8x8 block is
/// transposed so that vector j holds element i + j of every row, widened
/// with cvtps2pd, squared and added — lane l adds row l's squares in
/// element order, squared_norm's chain.
void avx512_squared_norms(std::size_t lanes, std::size_t n, const float* x,
                          std::size_t stride, double* out) {
  const float* row[kMaxNormLanes];
  norm_rows(lanes, x, stride, row);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + kMaxNormLanes <= n; i += kMaxNormLanes) {
    __m256 col[kMaxNormLanes];
    transpose8x8(row, i, col);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kMaxNormLanes; ++j) {
      // The all-lanes zero-masked form is plain cvtps2pd; the unmasked
      // intrinsic trips GCC 12's -Wmaybe-uninitialized.
      const __m512d v = _mm512_maskz_cvtps_pd(0xFF, col[j]);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(v, v));
    }
  }
  alignas(64) double sums[kMaxNormLanes];
  _mm512_store_pd(sums, acc);
  finish_norms(lanes, n, i, row, sums, out);
}

struct Avx512Config {
  using Isa = Avx512;
  static constexpr std::size_t kMR = 8;
  static constexpr std::size_t kNV = 1;
  static constexpr std::size_t kKC = 256;
  static constexpr std::size_t kMC = 64;
  static constexpr std::size_t kNC = 256;
  static constexpr std::size_t kNtNV = 1;
  static constexpr std::size_t kNtNR = 8;
  static constexpr std::size_t kDirectNV = 2;
  static constexpr std::size_t kDirectPixels = 16;
  using NarrowIsa = Avx512Ymm;
  static constexpr std::size_t kNarrowNtNR = 16;
  static constexpr auto squared_norms = &avx512_squared_norms;
};

}  // namespace

constinit const GemmVariant kAvx512Variant =
    GemmKernels<Avx512Config>::variant(common::GemmIsa::kAvx512);

}  // namespace mach::tensor::kernels::detail
