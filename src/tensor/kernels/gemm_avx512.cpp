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

struct Avx512Config {
  using Isa = Avx512;
  static constexpr std::size_t kMR = 8;
  static constexpr std::size_t kNV = 1;
  static constexpr std::size_t kKC = 256;
  static constexpr std::size_t kMC = 64;
  static constexpr std::size_t kNC = 256;
  static constexpr std::size_t kNtNV = 1;
  static constexpr std::size_t kNtNR = 8;
  using NarrowIsa = Avx512Ymm;
  static constexpr std::size_t kNarrowNtNR = 16;
};

}  // namespace

constinit const GemmVariant kAvx512Variant =
    GemmKernels<Avx512Config>::variant(common::GemmIsa::kAvx512);

}  // namespace mach::tensor::kernels::detail
