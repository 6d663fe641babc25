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
};
using BaselineIsa = Scalar;
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
};

}  // namespace

constinit const GemmVariant kBaselineVariant =
    GemmKernels<BaselineConfig>::variant(common::GemmIsa::kBaseline);

}  // namespace mach::tensor::kernels::detail
