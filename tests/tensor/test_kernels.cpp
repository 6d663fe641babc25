// Property-style equivalence suite: blocked kernels vs the retained
// reference kernels over randomized and adversarial shapes. Every GEMM case
// runs once per variant this CPU supports (baseline, AVX2, AVX-512), reached
// through the internal variant table, with the tile-edge cases derived from
// that variant's own blocking.
//
// Tolerance policy: EXACT bitwise equality (EXPECT_EQ on floats, no
// epsilon). The blocked kernels are required to reproduce the reference's
// per-element float addition chains exactly (see kernels.h): cache blocking
// only spills/reloads exact partial sums, the kernel TUs are built with
// -ffp-contract=off, and reductions are never reassociated. Exactness is
// what PR 2's serial-vs-parallel bitwise-equality contract rests on, so a
// near-miss here is a real defect, not rounding noise.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu_isa.h"
#include "common/rng.h"
#include "tensor/kernels/gemm_variants.h"
#include "tensor/kernels/kernels.h"

namespace mach::tensor::kernels {
namespace {

std::vector<float> random_vec(std::size_t n, common::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Sprinkles exact zeros so the reference's `if (aval == 0.0f) continue;`
/// fast path is exercised (the blocked kernels are branch-free; 0*b adds
/// must be value-identical to skipping).
void sprinkle_zeros(std::vector<float>& v, common::Rng& rng) {
  for (auto& x : v) {
    if (rng.uniform_index(4) == 0) x = 0.0f;
  }
}

struct GemmCase {
  std::size_t m, k, n;
};

/// Shapes for one variant: degenerate, around its register tiles and cache
/// panels, skinny, paper-shaped, and random.
std::vector<GemmCase> gemm_cases(const detail::GemmVariant& v) {
  const detail::Blocking& b = v.nn;
  const detail::NtBlocking& t = v.nt;
  std::vector<GemmCase> cases = {
      // Degenerate / tiny.
      {1, 1, 1},
      {1, 5, 9},
      {7, 1, 3},  // k = 1
      // Off-by-one around the gemm_nn/gemm_tn register tile.
      {b.mr - 1, 3, b.nr - 1},
      {b.mr + 1, 17, b.nr + 1},
      {2 * b.mr, 5, 2 * b.nr},
      // Off-by-one around the gemm_nt tile.
      {t.mr - 1, 9, t.nr - 1},
      {t.mr + 1, 33, t.nr + 1},
      {2 * t.mr, 4, 2 * t.nr},
      // Around the cache panels.
      {b.mc, b.kc, b.nc},
      {b.mc + 1, b.kc + 1, 13},
      {3, b.kc + 7, b.nc + 9},
      {b.mc - 1, 2 * b.kc + 3, b.nc - 1},
      {257, 1, 8},
      // Tall / wide / skinny.
      {80, 3, 2},
      {2, 3, 80},
      {1, 300, 1},
      // Paper-shaped layers (MNIST cnn2 + CIFAR cnn3 conv/dense GEMMs).
      {8, 9, 784},
      {16, 72, 196},
      {32, 784, 32},
      {8, 27, 1024},
      {16, 72, 256},
      {32, 144, 64},
      {32, 512, 64},
      {8, 1024, 27},
      {27, 8, 1024},
  };
  // The pushes below fit without a reallocation, which GCC 12 otherwise
  // flags (a false -Warray-bounds under -fsanitize=undefined).
  cases.reserve(cases.size() + 43);
  if (t.narrow_mr > 0) {  // the narrow gemm_nt tile runs for m <= narrow_mr
    cases.push_back({t.narrow_mr - 1, 9, t.narrow_nr - 1});
    cases.push_back({t.narrow_mr, 70, t.narrow_nr + 1});
    cases.push_back({t.narrow_mr + 1, 5, 2 * t.narrow_nr});
  }
  common::Rng rng(20240806);
  for (int i = 0; i < 40; ++i) {
    cases.push_back({rng.uniform_index(80) + 1, rng.uniform_index(80) + 1,
                     rng.uniform_index(80) + 1});
  }
  return cases;
}

std::string describe(const detail::GemmVariant& v, const GemmCase& c) {
  return std::string(common::gemm_isa_name(v.isa)) +
         " m=" + std::to_string(c.m) +
         " k=" + std::to_string(c.k) + " n=" + std::to_string(c.n);
}

TEST(GemmDispatch, ActiveVariantIsTheWidestTheHostSupports) {
  const auto host = detail::host_variants();
  ASSERT_FALSE(host.empty());
  EXPECT_EQ(host.front(), &detail::kBaselineVariant);
  EXPECT_EQ(&detail::active_variant(), host.back());
  EXPECT_EQ(detail::active_variant().isa, common::host_gemm_isa());
}

TEST(KernelEquivalence, GemmNnExact) {
  common::Rng rng(1);
  for (const auto* v : detail::host_variants()) {
    for (const auto& c : gemm_cases(*v)) {
      for (bool accumulate : {false, true}) {
        auto a = random_vec(c.m * c.k, rng);
        auto b = random_vec(c.k * c.n, rng);
        sprinkle_zeros(a, rng);
        auto c_ref = random_vec(c.m * c.n, rng);
        auto c_blk = c_ref;
        ref::gemm_nn({a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                     {c_ref.data(), c.m, c.n}, accumulate);
        detail::gemm_nn(*v, {a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                        {c_blk.data(), c.m, c.n}, accumulate);
        for (std::size_t i = 0; i < c_ref.size(); ++i) {
          ASSERT_EQ(c_blk[i], c_ref[i])
              << describe(*v, c) << " accumulate=" << accumulate << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEquivalence, GemmNnFusedBiasExact) {
  common::Rng rng(2);
  for (const auto* v : detail::host_variants()) {
    for (const auto& c : gemm_cases(*v)) {
      const auto a = random_vec(c.m * c.k, rng);
      const auto b = random_vec(c.k * c.n, rng);
      const auto bias_row = random_vec(c.m, rng);
      const auto bias_col = random_vec(c.n, rng);
      for (int form = 0; form < 3; ++form) {
        const float* br = (form == 0) ? bias_row.data() : nullptr;
        const float* bc = (form == 1) ? bias_col.data() : nullptr;
        if (form == 2) {
          br = bias_row.data();
          bc = bias_col.data();
        }
        std::vector<float> c_ref(c.m * c.n, 0.0f), c_blk(c.m * c.n, 0.0f);
        ref::gemm_nn({a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                     {c_ref.data(), c.m, c.n}, false, br, bc);
        detail::gemm_nn(*v, {a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                        {c_blk.data(), c.m, c.n}, false, br, bc);
        for (std::size_t i = 0; i < c_ref.size(); ++i) {
          ASSERT_EQ(c_blk[i], c_ref[i])
              << describe(*v, c) << " form=" << form << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEquivalence, GemmTnExact) {
  common::Rng rng(3);
  for (const auto* v : detail::host_variants()) {
    for (const auto& c : gemm_cases(*v)) {
      for (bool accumulate : {false, true}) {
        auto a = random_vec(c.k * c.m, rng);  // stored [k, m]
        auto b = random_vec(c.k * c.n, rng);
        sprinkle_zeros(a, rng);
        auto c_ref = random_vec(c.m * c.n, rng);
        auto c_blk = c_ref;
        ref::gemm_tn({a.data(), c.k, c.m}, {b.data(), c.k, c.n},
                     {c_ref.data(), c.m, c.n}, accumulate);
        detail::gemm_tn(*v, {a.data(), c.k, c.m}, {b.data(), c.k, c.n},
                        {c_blk.data(), c.m, c.n}, accumulate);
        for (std::size_t i = 0; i < c_ref.size(); ++i) {
          ASSERT_EQ(c_blk[i], c_ref[i])
              << describe(*v, c) << " accumulate=" << accumulate << " i=" << i;
        }
      }
    }
  }
}

TEST(KernelEquivalence, GemmNtExact) {
  common::Rng rng(4);
  for (const auto* v : detail::host_variants()) {
    for (const auto& c : gemm_cases(*v)) {
      for (bool accumulate : {false, true}) {
        auto a = random_vec(c.m * c.k, rng);
        auto b = random_vec(c.n * c.k, rng);  // stored [n, k]
        sprinkle_zeros(a, rng);
        auto c_ref = random_vec(c.m * c.n, rng);
        auto c_blk = c_ref;
        ref::gemm_nt({a.data(), c.m, c.k}, {b.data(), c.n, c.k},
                     {c_ref.data(), c.m, c.n}, accumulate);
        detail::gemm_nt(*v, {a.data(), c.m, c.k}, {b.data(), c.n, c.k},
                        {c_blk.data(), c.m, c.n}, accumulate);
        for (std::size_t i = 0; i < c_ref.size(); ++i) {
          ASSERT_EQ(c_blk[i], c_ref[i])
              << describe(*v, c) << " accumulate=" << accumulate << " i=" << i;
        }
      }
    }
  }
}

/// The Dense GEMMs of the benchmark workloads: forward (gemm_nn with the
/// fused bias_col), weight gradient (gemm_tn) and input gradient (gemm_nt)
/// of every (in, out) layer at every batch size they run at, plus shapes
/// just inside and just outside the unpacked path's shape rule.
struct DenseShape {
  std::size_t in, out;
  bool workload;  // a benchmark layer (every batch) or a rule edge (small m)
};

std::vector<DenseShape> dense_shapes() {
  const std::size_t edge = detail::kUnpackedMaxB;  // 128 x 64 sits on it
  return {
      {64, 32, true}, {32, 10, true}, {128, 64, true}, {64, 10, true},
      {144, 32, true},
      {edge / 64 + 1, 64, false}, {1, edge, false}, {1, edge + 1, false},
      {edge, 1, false}, {edge + 1, 1, false}, {edge / 16, 16, false},
      {edge / 16, 17, false},
  };
}

/// Checks one GEMM of one variant against the reference, bit for bit.
void expect_same(const std::vector<float>& got, const std::vector<float>& want,
                 const std::string& what) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " i=" << i;
  }
}

TEST(KernelEquivalence, DenseShapesExactOnEveryVariant) {
  common::Rng rng(11);
  for (const DenseShape& d : dense_shapes()) {
    for (const std::size_t m : {1, 4, 16, 17, 256}) {
      if (!d.workload && m > 4 && m != 17) continue;
      SCOPED_TRACE("in=" + std::to_string(d.in) +
                   " out=" + std::to_string(d.out) + " m=" + std::to_string(m) +
                   (detail::unpacked_gemm(d.in, d.out) ? " unpacked"
                                                       : " packed"));
      auto x = random_vec(m * d.in, rng);  // activations [m, in]
      sprinkle_zeros(x, rng);
      const auto w = random_vec(d.in * d.out, rng);   // weight [in, out]
      const auto dy = random_vec(m * d.out, rng);     // grad_out [m, out]
      const auto bias = random_vec(d.out, rng);
      const auto bias_row = random_vec(m, rng);
      for (const auto* v : detail::host_variants()) {
        const std::string isa = common::gemm_isa_name(v->isa);
        for (bool accumulate : {false, true}) {
          const std::string what =
              isa + (accumulate ? " accumulate" : " overwrite");
          // Forward: y = x · W (+ bias_col, and with bias_row too).
          for (int form = 0; form < 3; ++form) {
            const float* bc = form >= 1 ? bias.data() : nullptr;
            const float* br = form == 2 ? bias_row.data() : nullptr;
            auto want = random_vec(m * d.out, rng);
            auto got = want;
            ref::gemm_nn({x.data(), m, d.in}, {w.data(), d.in, d.out},
                         {want.data(), m, d.out}, accumulate, br, bc);
            detail::gemm_nn(*v, {x.data(), m, d.in}, {w.data(), d.in, d.out},
                            {got.data(), m, d.out}, accumulate, br, bc);
            expect_same(got, want, what + " nn form=" + std::to_string(form));
          }
          // Weight gradient: dW = xᵀ · dy (k = the batch).
          {
            auto want = random_vec(d.in * d.out, rng);
            auto got = want;
            ref::gemm_tn({x.data(), m, d.in}, {dy.data(), m, d.out},
                         {want.data(), d.in, d.out}, accumulate);
            detail::gemm_tn(*v, {x.data(), m, d.in}, {dy.data(), m, d.out},
                            {got.data(), d.in, d.out}, accumulate);
            expect_same(got, want, what + " tn");
          }
          // Input gradient: dx = dy · Wᵀ.
          {
            auto want = random_vec(m * d.in, rng);
            auto got = want;
            ref::gemm_nt({dy.data(), m, d.out}, {w.data(), d.in, d.out},
                         {want.data(), m, d.in}, accumulate);
            detail::gemm_nt(*v, {dy.data(), m, d.out}, {w.data(), d.in, d.out},
                            {got.data(), m, d.in}, accumulate);
            expect_same(got, want, what + " nt");
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, UnpackedEntriesExactOnEveryShape) {
  // The unpacked kernels themselves, past the shape rule too (the rule is a
  // speed choice, not a correctness limit).
  common::Rng rng(12);
  for (const auto* v : detail::host_variants()) {
    for (const auto& c : gemm_cases(*v)) {
      for (bool accumulate : {false, true}) {
        const auto a = random_vec(c.m * c.k, rng);
        const auto b = random_vec(c.k * c.n, rng);
        const auto bias_row = random_vec(c.m, rng);
        const auto bias_col = random_vec(c.n, rng);
        auto want = random_vec(c.m * c.n, rng);
        auto got = want;
        ref::gemm_nn({a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                     {want.data(), c.m, c.n}, accumulate, bias_row.data(),
                     bias_col.data());
        v->gemm_nn_unpacked({a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                            {got.data(), c.m, c.n}, accumulate,
                            bias_row.data(), bias_col.data());
        expect_same(got, want, describe(*v, c) + " nn");
        want = random_vec(c.m * c.n, rng);
        got = want;
        ref::gemm_tn({a.data(), c.k, c.m}, {b.data(), c.k, c.n},
                     {want.data(), c.m, c.n}, accumulate);
        v->gemm_tn_unpacked({a.data(), c.k, c.m}, {b.data(), c.k, c.n},
                            {got.data(), c.m, c.n}, accumulate);
        expect_same(got, want, describe(*v, c) + " tn");
      }
    }
  }
}

TEST(KernelEquivalence, PublicGemmsMatchTheActiveVariant) {
  common::Rng rng(8);
  const auto& active = detail::active_variant();
  const GemmCase c{13, 37, 45};
  const auto a = random_vec(c.m * c.k, rng);
  const auto b = random_vec(c.k * c.n, rng);
  const auto bt = random_vec(c.n * c.k, rng);
  std::vector<float> got(c.m * c.n), want(c.m * c.n);
  gemm_nn({a.data(), c.m, c.k}, {b.data(), c.k, c.n}, {got.data(), c.m, c.n});
  detail::gemm_nn(active, {a.data(), c.m, c.k}, {b.data(), c.k, c.n},
                  {want.data(), c.m, c.n});
  EXPECT_EQ(got, want);
  gemm_tn({a.data(), c.k, c.m}, {b.data(), c.k, c.n}, {got.data(), c.m, c.n});
  detail::gemm_tn(active, {a.data(), c.k, c.m}, {b.data(), c.k, c.n},
                  {want.data(), c.m, c.n});
  EXPECT_EQ(got, want);
  gemm_nt({a.data(), c.m, c.k}, {bt.data(), c.n, c.k}, {got.data(), c.m, c.n});
  detail::gemm_nt(active, {a.data(), c.m, c.k}, {bt.data(), c.n, c.k},
                  {want.data(), c.m, c.n});
  EXPECT_EQ(got, want);
}

TEST(KernelEquivalence, Im2ColCol2ImExact) {
  common::Rng rng(5);
  for (std::size_t kernel : {1u, 3u, 5u}) {
    for (std::size_t pad : {0u, 1u, 2u}) {
      for (std::size_t stride : {1u, 2u}) {
        for (std::size_t hw : {4u, 7u, 12u}) {
          const std::size_t channels = 3;
          if (hw + 2 * pad < kernel) continue;
          const std::size_t oh = (hw + 2 * pad - kernel) / stride + 1;
          const std::size_t ncols = oh * oh;
          const std::size_t rows = channels * kernel * kernel;
          const auto image = random_vec(channels * hw * hw, rng);
          const auto gcols = random_vec(rows * ncols, rng);
          // col2im accumulates into a caller-zeroed image; seed both with
          // the same nonzero values to check pure accumulation too.
          const auto gimg_seed = random_vec(channels * hw * hw, rng);

          // Poison the destination: im2col must overwrite every element.
          std::vector<float> cols_ref(rows * ncols, -7.5f);
          ref::im2col(image.data(), channels, hw, hw, kernel, pad, stride,
                      cols_ref.data());
          auto gimg_ref = gimg_seed;
          ref::col2im(gcols.data(), channels, hw, hw, kernel, pad, stride,
                      gimg_ref.data());
          // The public im2col and col2im are the reference loops.
          std::vector<float> cols_pub(rows * ncols, 1.0f);
          im2col(image.data(), channels, hw, hw, kernel, pad, stride,
                 cols_pub.data());
          ASSERT_EQ(cols_pub, cols_ref)
              << "kernel=" << kernel << " pad=" << pad << " stride=" << stride
              << " hw=" << hw;
          auto gimg_pub = gimg_seed;
          col2im(gcols.data(), channels, hw, hw, kernel, pad, stride,
                 gimg_pub.data());
          ASSERT_EQ(gimg_pub, gimg_ref)
              << "kernel=" << kernel << " pad=" << pad << " stride=" << stride
              << " hw=" << hw;
        }
      }
    }
  }
}

TEST(KernelEquivalence, Col2ImExactOnTallNonSquareImages) {
  // Same-size convolutions on tall, narrow images: many output rows, and
  // border columns (taps wrapping into a neighbouring row) on most of them.
  common::Rng rng(10);
  const struct {
    std::size_t channels, height, width, kernel, pad;
  } shapes[] = {{2, 300, 5, 3, 1}, {1, 200, 9, 5, 2}, {2, 130, 3, 1, 0},
                {1, 90, 7, 7, 3}};
  for (const auto& sh : shapes) {
    const std::size_t oh = sh.height + 2 * sh.pad - sh.kernel + 1;
    const std::size_t ow = sh.width + 2 * sh.pad - sh.kernel + 1;
    const std::size_t rows = sh.channels * sh.kernel * sh.kernel;
    const auto gcols = random_vec(rows * oh * ow, rng);
    const auto seed = random_vec(sh.channels * sh.height * sh.width, rng);
    auto want = seed;
    ref::col2im(gcols.data(), sh.channels, sh.height, sh.width, sh.kernel,
                sh.pad, 1, want.data());
    const auto image = random_vec(sh.channels * sh.height * sh.width, rng);
    std::vector<float> cols_ref(rows * oh * ow);
    ref::im2col(image.data(), sh.channels, sh.height, sh.width, sh.kernel,
                sh.pad, 1, cols_ref.data());
    auto got = seed;
    col2im(gcols.data(), sh.channels, sh.height, sh.width, sh.kernel, sh.pad,
           1, got.data());
    ASSERT_EQ(got, want) << sh.height << "x" << sh.width
                         << " kernel=" << sh.kernel;
    std::vector<float> cols(rows * oh * ow, 3.0f);
    im2col(image.data(), sh.channels, sh.height, sh.width, sh.kernel, sh.pad,
           1, cols.data());
    ASSERT_EQ(cols, cols_ref) << sh.height << "x" << sh.width
                              << " kernel=" << sh.kernel;
  }
}

TEST(KernelEquivalence, ElementwiseExact) {
  common::Rng rng(6);
  const std::size_t n = 1037;  // non-multiple of any vector width
  const auto x = random_vec(n, rng);
  const auto y0 = random_vec(n, rng);

  std::vector<float> got(n), want(n);
  relu(n, x.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] = x[i] > 0.0f ? x[i] : 0.0f;
  EXPECT_EQ(got, want);

  relu_bwd(n, x.data(), y0.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] = x[i] > 0.0f ? y0[i] : 0.0f;
  EXPECT_EQ(got, want);

  got = y0;
  want = y0;
  axpy(n, 0.37f, x.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] += 0.37f * x[i];
  EXPECT_EQ(got, want);

  const auto base = random_vec(n, rng);
  got = y0;
  want = y0;
  axpy_delta(n, -1.25f, x.data(), base.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] += -1.25f * (x[i] - base[i]);
  EXPECT_EQ(got, want);

  got = y0;
  want = y0;
  scale(n, 0.81f, got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] *= 0.81f;
  EXPECT_EQ(got, want);

  scale_copy(n, -0.5f, x.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] = -0.5f * x[i];
  EXPECT_EQ(got, want);

  got = y0;
  want = y0;
  vadd(n, x.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] = y0[i] + x[i];
  EXPECT_EQ(got, want);
}

/// Bit patterns, so NaNs and signed zeros compare exactly.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return out;
}

TEST(KernelEquivalence, ReluBackwardExactOnSignedZerosAndNaN) {
  // x mixes signs, +-0, NaN and infinities; gy carries the same specials so
  // a selected NaN or -0 must pass through unchanged and a masked one must
  // become +0, exactly as the conditional-load form produced.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {1.5f, -2.0f, 0.0f, -0.0f, nan, -nan,
                                       inf,  -inf,  1e-40f, -1e-40f};
  common::Rng rng(9);
  const std::size_t n = 1031;
  std::vector<float> x(n), gy(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = i < specials.size() * specials.size()
               ? specials[i / specials.size()]
               : static_cast<float>(rng.normal());
    gy[i] = i < specials.size() * specials.size()
                ? specials[i % specials.size()]
                : static_cast<float>(rng.normal());
  }
  std::vector<float> got(n, 7.0f), want(n);
  relu_bwd(n, x.data(), gy.data(), got.data());
  for (std::size_t i = 0; i < n; ++i) want[i] = x[i] > 0.0f ? gy[i] : 0.0f;
  EXPECT_EQ(bits(got), bits(want));
}

TEST(KernelEquivalence, ReductionsMatchStrictOrderChains) {
  common::Rng rng(7);
  const std::size_t n = 517;
  const auto x = random_vec(n, rng);
  const auto y = random_vec(n, rng);

  double want = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    want += static_cast<double>(x[i]) * static_cast<double>(y[i]);
  }
  EXPECT_EQ(dot(n, x.data(), y.data()), want);

  want = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    want += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  EXPECT_EQ(squared_norm(n, x.data()), want);

  const std::size_t m = 13, cols = 29;
  const auto mat = random_vec(m * cols, rng);
  std::vector<float> got_cols(cols, 1.5f), want_cols(cols, 1.5f);
  col_sums(m, cols, mat.data(), got_cols.data(), /*accumulate=*/true);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < cols; ++j) want_cols[j] += mat[i * cols + j];
  }
  EXPECT_EQ(got_cols, want_cols);
}

double reference_norm(std::size_t n, const float* x) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    total += v * v;
  }
  return total;
}

TEST(KernelEquivalence, LaneNormsAreBitwiseSquaredNorm) {
  // Every lane count, every length up to three 16-wide vectors + 1, and
  // +-0, NaN, +-inf and subnormals at every position (one special per lane,
  // at a different position in each lane). Lanes sit stride > n apart.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, nan, -nan, inf, -inf, 1e-40f, -3e-39f};
  common::Rng rng(13);
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const auto* v : detail::host_variants()) {
    const std::string isa = common::gemm_isa_name(v->isa);
    for (std::size_t n = 0; n <= 3 * 16 + 1; ++n) {
      const std::size_t stride = n + 3;
      for (std::size_t lanes = 1; lanes <= kMaxNormLanes; ++lanes) {
        const auto check = [&](const std::vector<float>& x,
                               const std::string& what) {
          double got[kMaxNormLanes] = {};
          detail::squared_norms(*v, lanes, n, x.data(), stride, got);
          for (std::size_t l = 0; l < lanes; ++l) {
            ASSERT_EQ(bits(got[l]), bits(squared_norm(n, x.data() + l * stride)))
                << isa << " n=" << n << " lanes=" << lanes << " lane=" << l
                << " " << what;
            ASSERT_EQ(bits(got[l]),
                      bits(reference_norm(n, x.data() + l * stride)));
          }
        };
        auto x = random_vec(lanes * stride, rng);
        check(x, "normal");
        for (const float special : specials) {
          for (std::size_t pos = 0; pos < n; ++pos) {
            auto y = x;
            for (std::size_t l = 0; l < lanes; ++l) {
              y[l * stride + (pos + l) % n] = special;
            }
            check(y, "special=" + std::to_string(special) +
                         " pos=" + std::to_string(pos));
          }
        }
      }
    }
  }
}

TEST(KernelEquivalence, PublicLaneNormsRunManyLanesInGroups) {
  common::Rng rng(14);
  const std::size_t lanes = 2 * kMaxNormLanes + 3, n = 2410;
  const auto x = random_vec(lanes * n, rng);
  std::vector<double> got(lanes);
  squared_norms(lanes, n, x.data(), n, got.data());
  for (std::size_t l = 0; l < lanes; ++l) {
    EXPECT_EQ(got[l], squared_norm(n, x.data() + l * n)) << "lane " << l;
  }
}

}  // namespace
}  // namespace mach::tensor::kernels
