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
  // New ops use the all-lanes zero-masked forms, which are the plain
  // instructions: the unmasked intrinsics trip GCC 12's
  // -Wmaybe-uninitialized.
  static constexpr __mmask16 kAll = 0xFFFF;
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
  // maxps: a > b ? a : b, lane by lane.
  static MACH_INLINE V max(V a, V b) { return _mm512_maskz_max_ps(kAll, a, b); }
  // Lane-wise 0..3: the first of r0, r1, r2 equal to p, else 3, as int32.
  static MACH_INLINE V pool_code(V r0, V r1, V r2, V p) {
    const __mmask16 n0 = _mm512_cmp_ps_mask(r0, p, _CMP_NEQ_UQ);
    const __mmask16 n01 = _mm512_mask_cmp_ps_mask(n0, r1, p, _CMP_NEQ_UQ);
    const __mmask16 n012 = _mm512_mask_cmp_ps_mask(n01, r2, p, _CMP_NEQ_UQ);
    const __m512i one = _mm512_set1_epi32(1);
    __m512i code = _mm512_maskz_mov_epi32(n0, one);
    code = _mm512_mask_add_epi32(code, n01, code, one);
    code = _mm512_mask_add_epi32(code, n012, code, one);
    return _mm512_castsi512_ps(code);
  }
  // The low byte of each of the first `count` int32 lanes.
  static MACH_INLINE void store_bytes(std::uint8_t* p, V v, std::size_t count) {
    _mm512_mask_cvtepi32_storeu_epi8(p, mask(count), _mm512_castps_si512(v));
  }
  // r[j] becomes element j of the sixteen rows passed in (lane l: row l):
  // 4x4 transposes inside each 128-bit lane, then two rounds of 128-bit
  // lane shuffles.
  template <int kImm>
  static MACH_INLINE V pairs(V a, V b) {
    return _mm512_maskz_shuffle_ps(kAll, a, b, kImm);
  }
  template <int kImm>
  static MACH_INLINE V lanes(V a, V b) {
    return _mm512_maskz_shuffle_f32x4(kAll, a, b, kImm);
  }
  static MACH_INLINE void transpose(V (&r)[kW]) {
    V t[16], u[16];
#pragma GCC unroll 16
    for (std::size_t l = 0; l < 16; l += 2) {
      t[l] = _mm512_maskz_unpacklo_ps(kAll, r[l], r[l + 1]);
      t[l + 1] = _mm512_maskz_unpackhi_ps(kAll, r[l], r[l + 1]);
    }
    // u[g + m], 128-bit lane L: element 4L + m of rows g .. g + 3.
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; g += 4) {
      u[g] = pairs<_MM_SHUFFLE(1, 0, 1, 0)>(t[g], t[g + 2]);
      u[g + 1] = pairs<_MM_SHUFFLE(3, 2, 3, 2)>(t[g], t[g + 2]);
      u[g + 2] = pairs<_MM_SHUFFLE(1, 0, 1, 0)>(t[g + 1], t[g + 3]);
      u[g + 3] = pairs<_MM_SHUFFLE(3, 2, 3, 2)>(t[g + 1], t[g + 3]);
    }
#pragma GCC unroll 4
    for (std::size_t m = 0; m < 4; ++m) {
      const V x0 = lanes<_MM_SHUFFLE(1, 0, 1, 0)>(u[m], u[4 + m]);
      const V x1 = lanes<_MM_SHUFFLE(3, 2, 3, 2)>(u[m], u[4 + m]);
      const V y0 = lanes<_MM_SHUFFLE(1, 0, 1, 0)>(u[8 + m], u[12 + m]);
      const V y1 = lanes<_MM_SHUFFLE(3, 2, 3, 2)>(u[8 + m], u[12 + m]);
      r[m] = lanes<_MM_SHUFFLE(2, 0, 2, 0)>(x0, y0);
      r[4 + m] = lanes<_MM_SHUFFLE(3, 1, 3, 1)>(x0, y0);
      r[8 + m] = lanes<_MM_SHUFFLE(2, 0, 2, 0)>(x1, y1);
      r[12 + m] = lanes<_MM_SHUFFLE(3, 1, 3, 1)>(x1, y1);
    }
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
  static constexpr std::size_t kFwdChannels = 6;
  static constexpr std::size_t kFwdWindows = 1;
  static constexpr std::size_t kDwChannels = 4;
  static constexpr std::size_t kDwTaps = 6;
  using NarrowIsa = Avx512Ymm;
  static constexpr std::size_t kNarrowNtNR = 16;
  static constexpr auto squared_norms = &avx512_squared_norms;
};

}  // namespace

constinit const GemmVariant kAvx512Variant =
    GemmKernels<Avx512Config>::variant(common::GemmIsa::kAvx512);

}  // namespace mach::tensor::kernels::detail
