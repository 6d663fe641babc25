#include "common/cpu_isa.h"

namespace mach::common {

CpuFeatures detect_cpu_features() {
  CpuFeatures features;
#if defined(__x86_64__)
  // libgcc's cpuid probe also checks that the OS saves the wider register
  // state (XCR0), so a reported feature is safe to execute.
  __builtin_cpu_init();
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.avx512f = __builtin_cpu_supports("avx512f") != 0;
  features.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
#endif
  return features;
}

GemmIsa select_gemm_isa(const CpuFeatures& features) {
  if (!features.avx2) return GemmIsa::kBaseline;
  if (features.avx512f && features.avx512vl) return GemmIsa::kAvx512;
  return GemmIsa::kAvx2;
}

GemmIsa host_gemm_isa() {
  static const GemmIsa isa = select_gemm_isa(detect_cpu_features());
  return isa;
}

const char* gemm_isa_name(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kBaseline: return "baseline";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kAvx512: return "avx512";
  }
  return "baseline";
}

}  // namespace mach::common
