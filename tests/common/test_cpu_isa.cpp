#include <gtest/gtest.h>

#include <string>

#include "common/cpu_isa.h"

namespace mach::common {
namespace {

CpuFeatures features(bool avx2, bool avx512f, bool avx512vl) {
  CpuFeatures f;
  f.avx2 = avx2;
  f.avx512f = avx512f;
  f.avx512vl = avx512vl;
  return f;
}

TEST(GemmIsaSelection, NoAvx2PicksBaseline) {
  EXPECT_EQ(select_gemm_isa(features(false, false, false)), GemmIsa::kBaseline);
  // AVX-512 bits without AVX2 (a masked virtual CPU) still fall back: the
  // AVX-512 variant is built with flags that imply AVX2.
  EXPECT_EQ(select_gemm_isa(features(false, true, true)), GemmIsa::kBaseline);
}

TEST(GemmIsaSelection, Avx2PicksAvx2) {
  EXPECT_EQ(select_gemm_isa(features(true, false, false)), GemmIsa::kAvx2);
  // AVX-512F alone is not enough: the variant needs the VL extension too.
  EXPECT_EQ(select_gemm_isa(features(true, true, false)), GemmIsa::kAvx2);
  EXPECT_EQ(select_gemm_isa(features(true, false, true)), GemmIsa::kAvx2);
}

TEST(GemmIsaSelection, Avx512FAndVlPicksAvx512) {
  EXPECT_EQ(select_gemm_isa(features(true, true, true)), GemmIsa::kAvx512);
}

TEST(GemmIsaSelection, HostChoiceFollowsTheDetectedFeatures) {
  EXPECT_EQ(host_gemm_isa(), select_gemm_isa(detect_cpu_features()));
  EXPECT_EQ(std::string(gemm_isa_name(GemmIsa::kBaseline)), "baseline");
  EXPECT_EQ(std::string(gemm_isa_name(GemmIsa::kAvx2)), "avx2");
  EXPECT_EQ(std::string(gemm_isa_name(GemmIsa::kAvx512)), "avx512");
}

}  // namespace
}  // namespace mach::common
