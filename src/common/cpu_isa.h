// Which GEMM micro-kernel this machine runs.
//
// The tensor kernels ship one GEMM variant per instruction set, each in its
// own translation unit (src/tensor/kernels/, DESIGN.md §9). The choice is
// made once per process from cpuid and lives here, below both tensor and obs,
// so telemetry can name the kernel without depending on the tensor library.
#pragma once

namespace mach::common {

/// GEMM variants in increasing vector width. Each level requires the CPU
/// features of every level below it.
enum class GemmIsa { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

/// The CPU features the selection looks at.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool avx512vl = false;
};

/// Features of the CPU this process runs on (all false off x86-64).
CpuFeatures detect_cpu_features();

/// Pure selection rule: AVX-512F+VL (on top of AVX2) -> avx512, AVX2 ->
/// avx2, anything else -> baseline.
GemmIsa select_gemm_isa(const CpuFeatures& features);

/// select_gemm_isa(detect_cpu_features()), computed once per process.
GemmIsa host_gemm_isa();

/// "baseline", "avx2" or "avx512".
const char* gemm_isa_name(GemmIsa isa);

}  // namespace mach::common
