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

};

struct Avx2Config {
  using Isa = Avx2;
  static constexpr std::size_t kMR = 4;
  static constexpr std::size_t kNV = 2;
  static constexpr std::size_t kKC = 256;
  static constexpr std::size_t kMC = 64;
  static constexpr std::size_t kNC = 256;
  static constexpr std::size_t kNtNV = 1;
  static constexpr std::size_t kNtNR = 8;
};

}  // namespace

constinit const GemmVariant kAvx2Variant =
    GemmKernels<Avx2Config>::variant(common::GemmIsa::kAvx2);

}  // namespace mach::tensor::kernels::detail
