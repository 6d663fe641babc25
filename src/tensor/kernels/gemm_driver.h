// Register-blocked, cache-tiled GEMM drivers shared by every ISA variant.
//
// Each gemm_<isa>.cpp translation unit defines a Cfg (vector traits plus
// blocking) and instantiates GemmKernels<Cfg> once, under its own -m flags.
//
// Structure of gemm_nn / gemm_tn / conv_forward (classic BLIS-style,
// single-threaded):
//   * the driver tiles N into NC panels, K into KC blocks and M into MC
//     blocks, packing the B panel (KC x NC, interleaved in NR-wide strips)
//     and the A block (MC x KC, interleaved in MR-wide strips) into the
//     caller's pack buffers so the micro-kernel streams contiguous memory;
//     conv_forward instead builds each B panel straight from the NCHW image
//     (a row-major slice of the virtual im2col matrix), which fuses im2col
//     into the packing pass — the same builder is the production im2col;
//   * the micro-kernel keeps an MR x NR accumulator tile in vector registers
//     (MR rows of NV vectors) and applies kc rank-1 updates in increasing p
//     order; edge tiles run the same kernel on a zero-padded copy.
// conv_forward_direct (out_c in whole vectors) skips the GEMM form: output
// channels sit in vector lanes and each input value is broadcast from a
// zero-padded copy of the image's planes (see the direct section below).
// conv_backward runs a whole minibatch: the weight gradient keeps gemm_nt's
// dot-product tiles with the image loop inside the tile loop, broadcasting
// from the same padded planes, and the input gradient is one gemm_tn-shaped
// GEMM over images laid side by side with col2im fused into it (see
// conv_backward below).
// gemm_nt keeps its dot-product form: each tile holds MR_nt rows of C in
// vector lanes and NR_nt columns, sums the full k into fresh accumulators
// (A packed in MR_nt-row strips, B rows broadcast in place, so B needs no
// transposed packing) and adds the result to C once. A variant may add a
// narrow nt tile (half-width vectors) for m <= its lane count, so a small
// m does not leave half of every wide vector idle.
//
// Determinism: every C element accumulates its k contributions in strictly
// increasing p order with separate multiply and add (the TUs are compiled
// with -ffp-contract=off, so no FMA), and KC blocking spills the exact
// partial sum to C between blocks. The float chains are therefore those of
// the reference kernels for every variant and every vector width.
//
// One-definition rule: everything here has internal linkage (anonymous
// namespace), and the ISA TUs use no std:: templates, no thread_local and no
// dynamic initialisers. An inline or template function instantiated under
// -mavx512f would otherwise be a weak symbol the linker may pick for the
// whole program, and a CPU without AVX-512 would die with SIGILL in code it
// never asked for. scripts/ci.sh checks the ISA objects for weak symbols.
#pragma once

#include <cstddef>

#include "tensor/kernels/conv_geometry.h"
#include "tensor/kernels/gemm_variants.h"

#if defined(__AVX__)
#include <immintrin.h>
#endif

#define MACH_INLINE inline __attribute__((always_inline))

namespace mach::tensor::kernels::detail {
namespace {

MACH_INLINE std::size_t min_size(std::size_t a, std::size_t b) {
  return a < b ? a : b;
}

/// One run of an im2col row, for x in [xa, xb):
///   out[x - xa] = x in [lo, hi) ? row[x + dx] : 0,
/// reading only row[lo + dx, hi + dx) (lo <= hi are clamped to [xa, xb]).
MACH_INLINE void copy_run(float* out, const float* row, std::ptrdiff_t dx,
                          std::size_t xa, std::size_t xb, std::size_t lo,
                          std::size_t hi) {
  for (std::size_t x = xa; x < lo; ++x) out[x - xa] = 0.0f;
  if (lo < hi) {
    const float* from = row + (static_cast<std::ptrdiff_t>(lo) + dx);
    for (std::size_t x = lo; x < hi; ++x) out[x - xa] = from[x - lo];
  }
  for (std::size_t x = hi; x < xb; ++x) out[x - xa] = 0.0f;
}

/// Lane-norm helpers for each variant's squared_norms (kernels.h). The
/// kernels run one double accumulator lane per row, so each row's sum is
/// squared_norm's serial chain; rows past `lanes` re-read row 0 and their
/// sums are dropped.
static_assert(kMaxNormLanes == 8, "the lane-norm kernels transpose 8x8 blocks");

MACH_INLINE void norm_rows(std::size_t lanes, const float* x,
                           std::size_t stride, const float* (&row)[kMaxNormLanes]) {
  for (std::size_t l = 0; l < kMaxNormLanes; ++l) {
    row[l] = x + (l < lanes ? l : 0) * stride;
  }
}

/// Continues each lane's chain from sums[l] over elements [i, n) and writes
/// the first `lanes` results.
MACH_INLINE void finish_norms(std::size_t lanes, std::size_t n, std::size_t i,
                              const float* const (&row)[kMaxNormLanes],
                              const double* sums, double* out) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double total = sums[l];
    for (std::size_t j = i; j < n; ++j) {
      const double v = static_cast<double>(row[l][j]);
      total += v * v;
    }
    out[l] = total;
  }
}

#if defined(__AVX__)
/// 8x8 transpose: on return col[j] holds row[l][i + j] in lane l.
MACH_INLINE void transpose8x8(const float* const (&row)[kMaxNormLanes],
                              std::size_t i, __m256 (&col)[kMaxNormLanes]) {
  __m256 t[8], u[8];
#pragma GCC unroll 8
  for (std::size_t l = 0; l < 8; l += 2) {
    const __m256 r0 = _mm256_loadu_ps(row[l] + i);
    const __m256 r1 = _mm256_loadu_ps(row[l + 1] + i);
    t[l] = _mm256_unpacklo_ps(r0, r1);
    t[l + 1] = _mm256_unpackhi_ps(r0, r1);
  }
#pragma GCC unroll 8
  for (std::size_t h = 0; h < 8; h += 4) {
    u[h] = _mm256_shuffle_ps(t[h], t[h + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[h + 1] = _mm256_shuffle_ps(t[h], t[h + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < 4; ++j) {
    col[j] = _mm256_permute2f128_ps(u[j], u[j + 4], 0x20);
    col[j + 4] = _mm256_permute2f128_ps(u[j], u[j + 4], 0x31);
  }
}
#endif

/// Cfg provides:
///   Isa            vector traits: V, kW lanes, zero/load/store/bcast/add/mul
///                  and load_n/store_n (the first count lanes only)
///   kMR, kNV       gemm_nn/gemm_tn register tile: kMR rows x kNV vectors
///   kKC, kMC, kNC  cache blocks (kMC % kMR == 0, kNC % (kNV * kW) == 0)
///   kNtNV, kNtNR   gemm_nt tile: kNtNV vectors of rows x kNtNR columns
///   squared_norms  the variant's lane-norm kernel (kernels.h)
/// and optionally NarrowIsa + kNarrowNtNR, the gemm_nt tile (one NarrowIsa
/// vector of rows) used when m <= NarrowIsa::kW.
template <class Cfg>
struct GemmKernels {
  using Isa = typename Cfg::Isa;
  using V = typename Isa::V;
  static constexpr std::size_t kW = Isa::kW;
  static constexpr std::size_t kMR = Cfg::kMR;
  static constexpr std::size_t kNV = Cfg::kNV;
  static constexpr std::size_t kNR = kNV * kW;
  static constexpr std::size_t kKC = Cfg::kKC;
  static constexpr std::size_t kMC = Cfg::kMC;
  static constexpr std::size_t kNC = Cfg::kNC;
  static constexpr std::size_t kNtNV = Cfg::kNtNV;
  static constexpr std::size_t kNtMR = kNtNV * kW;
  static constexpr std::size_t kNtNR = Cfg::kNtNR;
  static_assert(kMC % kMR == 0 && kNC % kNR == 0,
                "blocks must hold whole tiles");

  // -------------------------------------------------------------------------
  // Packing
  // -------------------------------------------------------------------------

  /// Packs an mc x kc block of A (row-major, leading dimension lda) into
  /// MR-row strips: apack[strip][p * MR + r] = block[i0 + r][p], with rows
  /// beyond mc zero-padded so the micro-kernel never branches on mr.
  template <std::size_t MR>
  static MACH_INLINE void pack_a_n(const float* block, std::size_t lda,
                                   std::size_t mc, std::size_t kc,
                                   float* apack) {
    for (std::size_t i0 = 0; i0 < mc; i0 += MR) {
      const std::size_t mr = min_size(MR, mc - i0);
      for (std::size_t p = 0; p < kc; ++p) {
        float* dst = apack + p * MR;
        for (std::size_t r = 0; r < mr; ++r) dst[r] = block[(i0 + r) * lda + p];
        for (std::size_t r = mr; r < MR; ++r) dst[r] = 0.0f;
      }
      apack += kc * MR;
    }
  }

  /// Same strip layout for a transposed-A block: the source is stored [k, m]
  /// and we pack columns ic..ic+mc of rows pc..pc+kc. Reads are contiguous.
  static MACH_INLINE void pack_a_t(const float* block, std::size_t lda,
                                   std::size_t mc, std::size_t kc,
                                   float* apack) {
    for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
      const std::size_t mr = min_size(kMR, mc - i0);
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = block + p * lda + i0;
        float* dst = apack + p * kMR;
        for (std::size_t r = 0; r < mr; ++r) dst[r] = src[r];
        for (std::size_t r = mr; r < kMR; ++r) dst[r] = 0.0f;
      }
      apack += kc * kMR;
    }
  }

  /// Packs a kc x nc block of B (leading dimension ldb) into NR-wide strips:
  /// bpack[strip][p * NR + j] = block[p][j0 + j], zero-padded past nc.
  static MACH_INLINE void pack_b(const float* block, std::size_t ldb,
                                 std::size_t kc, std::size_t nc, float* bpack) {
    for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
      const std::size_t nr = min_size(kNR, nc - j0);
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = block + p * ldb + j0;
        float* dst = bpack + p * kNR;
        for (std::size_t j = 0; j < nr; ++j) dst[j] = src[j];
        for (std::size_t j = nr; j < kNR; ++j) dst[j] = 0.0f;
      }
      bpack += kc * kNR;
    }
  }

  /// Columns [jc, jc + nc) of rows [pc, pc + kc) of the virtual im2col
  /// matrix of one image (rows are (channel, ky, kx) kernel offsets, columns
  /// output pixels), read straight from the image into a row-major panel
  /// with leading dimension ldb; columns [nc, ldb) are zero-filled. Every
  /// element equals what the reference im2col writes.
  static void image_panel(const float* image, const ConvShape& s,
                          std::size_t oh, std::size_t ow, std::size_t pc,
                          std::size_t kc, std::size_t jc, std::size_t nc,
                          std::size_t ldb, float* panel) {
    const std::size_t taps = s.kernel * s.kernel;
    // (ch, ky, kx) of row pc + p, advanced without dividing per row.
    std::size_t ch = pc / taps;
    std::size_t ky = (pc % taps) / s.kernel;
    std::size_t kx = pc % s.kernel;
    const std::size_t first_oy = jc / ow;
    const std::size_t first_xa = jc % ow;
    for (std::size_t p = 0; p < kc; ++p) {
      if (p > 0 && ++kx == s.kernel) {
        kx = 0;
        if (++ky == s.kernel) {
          ky = 0;
          ++ch;
        }
      }
      const auto dy = static_cast<std::ptrdiff_t>(ky) -
                      static_cast<std::ptrdiff_t>(s.pad);
      const auto dx = static_cast<std::ptrdiff_t>(kx) -
                      static_cast<std::ptrdiff_t>(s.pad);
      const ValidRange ry = valid_range(dy, s.stride, s.height, oh);
      const ValidRange rx = valid_range(dx, s.stride, s.width, ow);
      const float* plane = image + ch * s.height * s.width;
      float* out = panel + p * ldb;
      for (std::size_t j = nc; j < ldb; ++j) out[j] = 0.0f;
      if (s.stride == 1 && ow == s.width) {
        const std::ptrdiff_t shift =
            dy * static_cast<std::ptrdiff_t>(s.width) + dx;
        same_size_row(plane, s, ow, shift, ry, rx, jc, nc, first_oy, out);
        continue;
      }
      std::size_t oy = first_oy;
      std::size_t xa = first_xa;
      for (std::size_t done = 0; done < nc;) {
        // One run of consecutive pixels [xa, xb) within output row oy.
        const std::size_t xb = min_size(ow, xa + (nc - done));
        std::size_t lo = xa, hi = xa;
        if (oy >= ry.lo && oy < ry.hi) {
          lo = rx.lo < xa ? xa : min_size(rx.lo, xb);
          hi = rx.hi < lo ? lo : min_size(rx.hi, xb);
        }
        const float* src = plane;
        if (lo < hi) {
          src += static_cast<std::size_t>(
                     static_cast<std::ptrdiff_t>(oy * s.stride) + dy) *
                 s.width;
        }
        if (s.stride == 1) {
          copy_run(out + done, src, dx, xa, xb, lo, hi);
        } else {
          float* d = out + done;
          for (std::size_t x = xa; x < lo; ++x) d[x - xa] = 0.0f;
          for (std::size_t x = lo; x < hi; ++x) {
            d[x - xa] = src[static_cast<std::size_t>(
                static_cast<std::ptrdiff_t>(x * s.stride) + dx)];
          }
          for (std::size_t x = hi; x < xb; ++x) d[x - xa] = 0.0f;
        }
        done += xb - xa;
        xa = 0;
        ++oy;
      }
    }
  }

  /// image_panel row for a stride-1 conv whose output is as wide as its
  /// input: pixel j reads plane[j + shift] (shift = dy * width + dx), so the
  /// valid output rows are one contiguous block copy. The copy also fills
  /// the border columns (ox outside rx, which read a neighbouring row), and
  /// those are zeroed afterwards. The copy is trimmed at both ends to stay
  /// inside the plane; the trimmed pixels are border columns too.
  static MACH_INLINE void same_size_row(const float* plane, const ConvShape& s,
                                        std::size_t ow, std::ptrdiff_t shift,
                                        ValidRange ry, ValidRange rx,
                                        std::size_t jc, std::size_t nc,
                                        std::size_t first_oy, float* out) {
    const std::size_t jend = jc + nc;
    std::size_t a = ry.lo * ow, b = ry.hi * ow;
    if (a < jc) a = jc;
    if (b > jend) b = jend;
    if (a >= b) {
      for (std::size_t j = 0; j < nc; ++j) out[j] = 0.0f;
      return;
    }
    for (std::size_t j = jc; j < a; ++j) out[j - jc] = 0.0f;
    for (std::size_t j = b; j < jend; ++j) out[j - jc] = 0.0f;
    const auto plane_size = static_cast<std::ptrdiff_t>(s.height * s.width);
    auto lo = static_cast<std::ptrdiff_t>(a);
    auto hi = static_cast<std::ptrdiff_t>(b);
    if (lo + shift < 0) lo = -shift;
    if (hi + shift > plane_size) hi = plane_size - shift;
    if (lo < hi) {
      const auto ulo = static_cast<std::size_t>(lo);
      const auto uhi = static_cast<std::size_t>(hi);
      copy_run(out + (ulo - jc), plane, shift, ulo, uhi, ulo, uhi);
    }
    // Border columns: a strided column of zeros per invalid ox.
    const std::size_t first_row = (first_oy > ry.lo ? first_oy : ry.lo) * ow;
    const auto zero_column = [&](std::size_t ox) {
      std::size_t j = first_row + ox;
      if (j < a) j += ow;
      for (; j < b; j += ow) out[j - jc] = 0.0f;
    };
    for (std::size_t ox = 0; ox < rx.lo; ++ox) zero_column(ox);
    for (std::size_t ox = rx.hi; ox < ow; ++ox) zero_column(ox);
  }

  // -------------------------------------------------------------------------
  // Micro-kernels
  // -------------------------------------------------------------------------

  /// MR x NR tile for gemm_nn / gemm_tn (B rows ldb apart): load C (or
  /// start from zero), apply kc rank-1 updates in increasing p order, add
  /// the optional bias (row bias first, then column bias, as the reference
  /// does), store.
  static MACH_INLINE void micro_nn(std::size_t kc, const float* ap,
                                   const float* bp, std::size_t ldb, float* ct,
                                   std::size_t ldc, bool zero_init,
                                   const float* bias_row,
                                   const float* bias_col) {
    V acc[kMR][kNV];
    if (zero_init) {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 16
        for (std::size_t v = 0; v < kNV; ++v) acc[r][v] = Isa::zero();
      }
    } else {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 16
        for (std::size_t v = 0; v < kNV; ++v) {
          acc[r][v] = Isa::load(ct + r * ldc + v * kW);
        }
      }
    }
    for (std::size_t p = 0; p < kc; ++p) {
      const float* apr = ap + p * kMR;
      const float* bpr = bp + p * ldb;
      V b[kNV];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kNV; ++v) b[v] = Isa::load(bpr + v * kW);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kMR; ++r) {
        const V av = Isa::bcast(apr[r]);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < kNV; ++v) {
          acc[r][v] = Isa::add(acc[r][v], Isa::mul(av, b[v]));
        }
      }
    }
    if (bias_row != nullptr) {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < kMR; ++r) {
        const V br = Isa::bcast(bias_row[r]);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < kNV; ++v) {
          acc[r][v] = Isa::add(acc[r][v], br);
        }
      }
    }
    if (bias_col != nullptr) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kNV; ++v) {
        const V bc = Isa::load(bias_col + v * kW);
#pragma GCC unroll 16
        for (std::size_t r = 0; r < kMR; ++r) {
          acc[r][v] = Isa::add(acc[r][v], bc);
        }
      }
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < kMR; ++r) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kNV; ++v) {
        Isa::store(ct + r * ldc + v * kW, acc[r][v]);
      }
    }
  }

  /// Fringe tile (mr < MR or nr < NR): the full-tile kernel on a zero-padded
  /// copy of the C tile and bias, then only the valid part is stored back.
  static void micro_nn_edge(std::size_t kc, const float* ap, const float* bp,
                            std::size_t ldb, float* ct, std::size_t ldc,
                            std::size_t mr, std::size_t nr, bool zero_init,
                            const float* bias_row, const float* bias_col) {
    alignas(64) float tile[kMR * kNR];
    alignas(64) float brow[kMR];
    alignas(64) float bcol[kNR];
    for (std::size_t i = 0; i < kMR * kNR; ++i) tile[i] = 0.0f;
    if (!zero_init) {
      for (std::size_t r = 0; r < mr; ++r) {
        for (std::size_t j = 0; j < nr; ++j) tile[r * kNR + j] = ct[r * ldc + j];
      }
    }
    if (bias_row != nullptr) {
      for (std::size_t r = 0; r < kMR; ++r) brow[r] = r < mr ? bias_row[r] : 0.0f;
    }
    if (bias_col != nullptr) {
      for (std::size_t j = 0; j < kNR; ++j) bcol[j] = j < nr ? bias_col[j] : 0.0f;
    }
    micro_nn(kc, ap, bp, ldb, tile, kNR, zero_init,
             bias_row != nullptr ? brow : nullptr,
             bias_col != nullptr ? bcol : nullptr);
    for (std::size_t r = 0; r < mr; ++r) {
      for (std::size_t j = 0; j < nr; ++j) ct[r * ldc + j] = tile[r * kNR + j];
    }
  }

  /// The B side of a micro_nt tile: `rows` runs of k elements, run r of
  /// column j starting at brows[j] + r * row_step with elements `step`
  /// apart. gemm_nt reads one contiguous run per B row; the conv weight
  /// gradient reads each output row's taps from a zero-padded plane.
  struct NtWalk {
    std::size_t rows, k, row_step, step;
  };

  /// gemm_nt tile in dot-product form, computed transposed: the lanes of NV
  /// NI vectors run over NV * NI::kW rows of C (a packed A strip), the NJ
  /// columns come from the B rows `brows`, broadcast one element at a time.
  /// Fresh accumulators sum the walk's rows * k elements in increasing
  /// order; tile[j * NV * NI::kW + i] receives the sums (kAdd: that element
  /// plus the sums).
  template <class NI, std::size_t NV, std::size_t NJ, bool kAdd = false>
  static MACH_INLINE void micro_nt(NtWalk walk, const float* ap,
                                   const float* const* brows, float* tile) {
    using NV_t = typename NI::V;
    constexpr std::size_t kRows = NV * NI::kW;
    NV_t acc[NJ][NV];
    const float* bj[NJ];
#pragma GCC unroll 32
    for (std::size_t j = 0; j < NJ; ++j) {
      bj[j] = brows[j];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) acc[j][v] = NI::zero();
    }
    for (std::size_t r = 0; r < walk.rows; ++r) {
      for (std::size_t p = 0; p < walk.k; ++p, ap += kRows) {
        NV_t a[NV];
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) a[v] = NI::load(ap + v * NI::kW);
#pragma GCC unroll 32
        for (std::size_t j = 0; j < NJ; ++j) {
          const NV_t bv = NI::bcast(bj[j][p * walk.step]);
#pragma GCC unroll 16
          for (std::size_t v = 0; v < NV; ++v) {
            acc[j][v] = NI::add(acc[j][v], NI::mul(a[v], bv));
          }
        }
      }
#pragma GCC unroll 32
      for (std::size_t j = 0; j < NJ; ++j) bj[j] += walk.row_step;
    }
#pragma GCC unroll 32
    for (std::size_t j = 0; j < NJ; ++j) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) {
        float* t = tile + j * kRows + v * NI::kW;
        NI::store(t, kAdd ? NI::add(NI::load(t), acc[j][v]) : acc[j][v]);
      }
    }
  }

  // -------------------------------------------------------------------------
  // Drivers
  // -------------------------------------------------------------------------

  /// Where a packed B panel's NR-wide strip j0 starts and how far apart its
  /// rows are: NR-strip layout (pack_b) or one row-major panel (image).
  struct PanelLayout {
    std::size_t strip_step;  // floats between consecutive strips
    std::size_t ldb;         // floats between consecutive rows of a strip
  };

  /// Shared packed-panel driver for gemm_nn, gemm_tn and conv_forward (they
  /// differ only in how the A block and the B panel are packed). Loop order
  /// jc -> pc -> ic keeps the k-blocks of any C element in increasing order.
  /// pack_b_panel(pc, kc, jc, nc, bpack) fills bpack and returns its layout.
  /// With kPrepackedA the caller has already packed A as one block (m <= MC,
  /// k <= KC) into buf.a.
  template <bool kTransposedA, bool kPrepackedA = false, class PackB>
  static MACH_INLINE void nn_driver(ConstMat a, std::size_t k,
                                    const PackB& pack_b_panel, Mat c,
                                    bool accumulate, const float* bias_row,
                                    const float* bias_col, PackBuffers buf) {
    const std::size_t m = c.rows, n = c.cols;
    for (std::size_t jc = 0; jc < n; jc += kNC) {
      const std::size_t nc = min_size(kNC, n - jc);
      for (std::size_t pc = 0; pc < k; pc += kKC) {
        const std::size_t kc = min_size(kKC, k - pc);
        const bool zero_init = pc == 0 && !accumulate;
        const bool last = pc + kc == k;
        const PanelLayout layout = pack_b_panel(pc, kc, jc, nc, buf.b);
        for (std::size_t ic = 0; ic < m; ic += kMC) {
          const std::size_t mc = min_size(kMC, m - ic);
          if constexpr (kPrepackedA) {
          } else if constexpr (kTransposedA) {
            pack_a_t(a.data + pc * a.cols + ic, a.cols, mc, kc, buf.a);
          } else {
            pack_a_n<kMR>(a.data + ic * a.cols + pc, a.cols, mc, kc, buf.a);
          }
          for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
            const std::size_t nr = min_size(kNR, nc - j0);
            const float* bp = buf.b + (j0 / kNR) * layout.strip_step;
            const float* bc =
                last && bias_col != nullptr ? bias_col + jc + j0 : nullptr;
            for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
              const std::size_t mr = min_size(kMR, mc - i0);
              const float* ap = buf.a + (i0 / kMR) * kc * kMR;
              float* ct = c.data + (ic + i0) * c.cols + jc + j0;
              const float* br =
                  last && bias_row != nullptr ? bias_row + ic + i0 : nullptr;
              if (mr == kMR && nr == kNR) {
                micro_nn(kc, ap, bp, layout.ldb, ct, c.cols, zero_init, br, bc);
              } else {
                micro_nn_edge(kc, ap, bp, layout.ldb, ct, c.cols, mr, nr,
                              zero_init, br, bc);
              }
            }
          }
        }
      }
    }
  }

  static void gemm_nn(ConstMat a, ConstMat b, Mat c, bool accumulate,
                      const float* bias_row, const float* bias_col,
                      PackBuffers buf) {
    const auto pack = [b](std::size_t pc, std::size_t kc, std::size_t jc,
                          std::size_t nc, float* bpack) {
      pack_b(b.data + pc * b.cols + jc, b.cols, kc, nc, bpack);
      return PanelLayout{kc * kNR, kNR};
    };
    nn_driver<false>(a, a.cols, pack, c, accumulate, bias_row, bias_col, buf);
  }

  static void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate,
                      PackBuffers buf) {
    const auto pack = [b](std::size_t pc, std::size_t kc, std::size_t jc,
                          std::size_t nc, float* bpack) {
      pack_b(b.data + pc * b.cols + jc, b.cols, kc, nc, bpack);
      return PanelLayout{kc * kNR, kNR};
    };
    nn_driver<true>(a, a.rows, pack, c, accumulate, nullptr, nullptr, buf);
  }

  // -------------------------------------------------------------------------
  // Unpacked path for small B (gemm_nn / gemm_tn, see the dispatcher's shape
  // rule): no pack buffers and no zero-padded edge tiles
  // -------------------------------------------------------------------------

  /// Loads columns of the last vector of a row that ends inside it (tail
  /// valid lanes) or a whole vector.
  template <bool kPartial>
  static MACH_INLINE V load_cols(const float* p, std::size_t tail) {
    if constexpr (kPartial) return Isa::load_n(p, tail);
    return Isa::load(p);
  }
  template <bool kPartial>
  static MACH_INLINE void store_cols(float* p, V v, std::size_t tail) {
    if constexpr (kPartial) {
      Isa::store_n(p, v, tail);
    } else {
      Isa::store(p, v);
    }
  }

  /// R rows x NV vectors of C, A broadcast in place (gemm_nn: element (i, p)
  /// at a[i * lda + p]; gemm_tn: a[p * lda + i]) and B rows read in place,
  /// ldb apart. With kTail the last vector holds `tail` columns; its loads
  /// and stores touch only those. Each element starts at +0 (or its stored
  /// value), adds its k products in increasing p, then the row and column
  /// bias: micro_nn's chain without a copy of A, B or C.
  template <bool kTransposedA, std::size_t R, std::size_t NV, bool kTail>
  static MACH_INLINE void unpacked_tile(const float* a, std::size_t lda,
                                        const float* b, std::size_t ldb,
                                        std::size_t k, float* c,
                                        std::size_t ldc, std::size_t tail,
                                        bool accumulate, const float* bias_row,
                                        const float* bias_col) {
    constexpr std::size_t kLast = NV - 1;
    V acc[R][NV];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kLast; ++v) {
        acc[r][v] = accumulate ? Isa::load(c + r * ldc + v * kW) : Isa::zero();
      }
      acc[r][kLast] = accumulate
                          ? load_cols<kTail>(c + r * ldc + kLast * kW, tail)
                          : Isa::zero();
    }
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = b + p * ldb;
      V bv[NV];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kLast; ++v) bv[v] = Isa::load(brow + v * kW);
      bv[kLast] = load_cols<kTail>(brow + kLast * kW, tail);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        const V av = Isa::bcast(kTransposedA ? a[p * lda + r] : a[r * lda + p]);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) {
          acc[r][v] = Isa::add(acc[r][v], Isa::mul(av, bv[v]));
        }
      }
    }
    if (bias_row != nullptr) {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        const V br = Isa::bcast(bias_row[r]);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) acc[r][v] = Isa::add(acc[r][v], br);
      }
    }
    if (bias_col != nullptr) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) {
        const V bc = v == kLast ? load_cols<kTail>(bias_col + v * kW, tail)
                                : Isa::load(bias_col + v * kW);
#pragma GCC unroll 16
        for (std::size_t r = 0; r < R; ++r) acc[r][v] = Isa::add(acc[r][v], bc);
      }
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kLast; ++v) {
        Isa::store(c + r * ldc + v * kW, acc[r][v]);
      }
      store_cols<kTail>(c + r * ldc + kLast * kW, acc[r][kLast], tail);
    }
  }

  /// The last `vectors` (1..NV) vectors of an R-row block, the final one
  /// holding `tail` columns.
  template <bool kTransposedA, std::size_t R, std::size_t NV>
  static MACH_INLINE void unpacked_fringe(std::size_t vectors, const float* a,
                                          std::size_t lda, const float* b,
                                          std::size_t ldb, std::size_t k,
                                          float* c, std::size_t ldc,
                                          std::size_t tail, bool accumulate,
                                          const float* bias_row,
                                          const float* bias_col) {
    if constexpr (NV > 1) {
      if (vectors < NV) {
        unpacked_fringe<kTransposedA, R, NV - 1>(vectors, a, lda, b, ldb, k,
                                                 c, ldc, tail, accumulate,
                                                 bias_row, bias_col);
        return;
      }
    }
    unpacked_tile<kTransposedA, R, NV, true>(a, lda, b, ldb, k, c, ldc, tail,
                                             accumulate, bias_row, bias_col);
  }

  /// One R-row block of C across all n columns: whole NR-wide tiles, then
  /// one fringe tile of at most NR columns.
  template <bool kTransposedA, std::size_t R>
  static void unpacked_rows(const float* a, std::size_t lda, ConstMat b,
                            float* c, std::size_t n, bool accumulate,
                            const float* bias_row, const float* bias_col) {
    const std::size_t k = b.rows;
    const std::size_t whole = n / kNR * kNR;
    for (std::size_t j0 = 0; j0 < whole; j0 += kNR) {
      unpacked_tile<kTransposedA, R, kNV, false>(
          a, lda, b.data + j0, n, k, c + j0, n, kW, accumulate, bias_row,
          bias_col != nullptr ? bias_col + j0 : nullptr);
    }
    if (whole == n) return;
    const std::size_t vectors = (n - whole + kW - 1) / kW;
    unpacked_fringe<kTransposedA, R, kNV>(
        vectors, a, lda, b.data + whole, n, k, c + whole, n,
        n - whole - (vectors - 1) * kW, accumulate, bias_row,
        bias_col != nullptr ? bias_col + whole : nullptr);
  }

  /// Rows [i0, m) in blocks of R, R/2, ..., 1 rows (fewer than 2R remain).
  template <bool kTransposedA, std::size_t R>
  static MACH_INLINE void unpacked_row_blocks(ConstMat a, ConstMat b, Mat c,
                                              std::size_t i0, bool accumulate,
                                              const float* bias_row,
                                              const float* bias_col) {
    for (; c.rows - i0 >= R; i0 += R) {
      unpacked_rows<kTransposedA, R>(
          kTransposedA ? a.data + i0 : a.data + i0 * a.cols, a.cols, b,
          c.data + i0 * c.cols, c.cols, accumulate,
          bias_row != nullptr ? bias_row + i0 : nullptr, bias_col);
    }
    if constexpr (R > 1) {
      unpacked_row_blocks<kTransposedA, R / 2>(a, b, c, i0, accumulate,
                                               bias_row, bias_col);
    }
  }

  static_assert((kMR & (kMR - 1)) == 0, "row blocks halve down to one row");

  static void gemm_nn_unpacked(ConstMat a, ConstMat b, Mat c, bool accumulate,
                               const float* bias_row, const float* bias_col) {
    unpacked_row_blocks<false, kMR>(a, b, c, 0, accumulate, bias_row,
                                    bias_col);
  }

  static void gemm_tn_unpacked(ConstMat a, ConstMat b, Mat c,
                               bool accumulate) {
    unpacked_row_blocks<true, kMR>(a, b, c, 0, accumulate, nullptr, nullptr);
  }

  /// conv_forward over `count` consecutive images. When the weights fit one
  /// A block they are packed once for the whole batch.
  static void conv_forward(const float* images, std::size_t count,
                           const ConvShape& shape, ConstMat weight,
                           const float* bias, float* out, PackBuffers buf) {
    const std::size_t oh = conv_out_extent(shape.height, shape);
    const std::size_t ow = conv_out_extent(shape.width, shape);
    const std::size_t m = weight.rows, k = weight.cols, n = oh * ow;
    const std::size_t image_size = shape.channels * shape.height * shape.width;
    const bool shared_a = m <= kMC && k <= kKC;
    if (shared_a) pack_a_n<kMR>(weight.data, k, m, k, buf.a);
    for (std::size_t img = 0; img < count; ++img) {
      const float* image = images + img * image_size;
      const auto pack = [image, &shape, oh, ow](std::size_t pc, std::size_t kc,
                                                std::size_t jc, std::size_t nc,
                                                float* bpack) {
        const std::size_t ldb = (nc + kNR - 1) / kNR * kNR;
        image_panel(image, shape, oh, ow, pc, kc, jc, nc, ldb, bpack);
        return PanelLayout{kNR, ldb};
      };
      const Mat c{out + img * m * n, m, n};
      if (shared_a) {
        nn_driver<false, true>(weight, k, pack, c, false, bias, nullptr, buf);
      } else {
        nn_driver<false>(weight, k, pack, c, false, bias, nullptr, buf);
      }
    }
  }

  // -------------------------------------------------------------------------
  // Convolutions on zero-padded planes (no im2col)
  // -------------------------------------------------------------------------

  /// An image's planes copied into (height + 2 pad) x (width + 2 pad) planes
  /// whose margins hold +0.0f, the value im2col writes for a tap outside the
  /// image: tap (c, ky, kx) of output pixel (oy, ox) is then element
  /// (oy * stride + ky) * wp + ox * stride + kx of padded plane c, with no
  /// bounds test.
  struct PaddedLayout {
    std::size_t wp;     // padded row length
    std::size_t plane;  // floats per padded plane
    std::size_t image;  // floats per padded image
  };

  static MACH_INLINE PaddedLayout padded_layout(const ConvShape& s) {
    const std::size_t wp = s.width + 2 * s.pad;
    return {wp, (s.height + 2 * s.pad) * wp, padded_image_floats(s)};
  }

  /// Copies an image into the interior of its padded planes (the margins
  /// are left as they are).
  static void pad_image(const float* image, const ConvShape& s,
                        const PaddedLayout& g, float* padded) {
    for (std::size_t c = 0; c < s.channels; ++c) {
      float* dst = padded + c * g.plane + s.pad * g.wp + s.pad;
      for (std::size_t y = 0; y < s.height; ++y, dst += g.wp, image += s.width) {
        for (std::size_t x = 0; x < s.width; ++x) dst[x] = image[x];
      }
    }
  }

  /// Offset of tap p = (c, ky, kx) in a padded image.
  static MACH_INLINE std::size_t tap_offset(std::size_t p, const ConvShape& s,
                                            const PaddedLayout& g) {
    const std::size_t taps = s.kernel * s.kernel;
    return p / taps * g.plane + (p % taps) / s.kernel * g.wp + p % s.kernel;
  }

  /// Register budget of the direct forward: kDirectNV vectors of output
  /// channels per block, RY = 2 output rows x up to kDirectPixels / (2 NV)
  /// pixels of each per tile.
  static constexpr std::size_t kDirectNV = Cfg::kDirectNV;
  static constexpr std::size_t kDirectPixels = Cfg::kDirectPixels;

  /// The direct forward's geometry for one image: output rows and columns
  /// and the distances, in the padded image, between output rows and
  /// between neighbouring pixels.
  struct DirectGeometry {
    const ConvShape& s;
    PaddedLayout g;
    std::size_t oh, ow, row_step, step, out_c;
  };

  /// One tile: RY output rows x RX pixels x NV vectors of output channels,
  /// the channels in vector lanes. `in` is tap (0, 0, 0) of the tile's first
  /// pixel in the padded image, `w` the block's first channel in the
  /// transposed weights [patch][out_c]. Every accumulator starts at +0, adds
  /// weight * input over the taps p = (c, ky, kx) in increasing order (each
  /// input value broadcast to all lanes) and then the bias: micro_nn's chain
  /// for every pixel and channel, with the same operand order. The sums are
  /// transposed through a stack tile into the NCHW output at `out`.
  template <std::size_t NV, std::size_t RY, std::size_t RX>
  static MACH_INLINE void direct_tile(const DirectGeometry& d, const float* in,
                                      const float* w, const float* bias,
                                      float* out) {
    V acc[RY][RX][NV];
#pragma GCC unroll 16
    for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
      for (std::size_t x = 0; x < RX; ++x) {
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) acc[t][x][v] = Isa::zero();
      }
    }
    const ConvShape& s = d.s;
    for (std::size_t c = 0; c < s.channels; ++c, in += d.g.plane) {
      const float* row = in;
      for (std::size_t ky = 0; ky < s.kernel; ++ky, row += d.g.wp) {
        for (std::size_t kx = 0; kx < s.kernel; ++kx, w += d.out_c) {
          V wv[NV];
#pragma GCC unroll 16
          for (std::size_t v = 0; v < NV; ++v) wv[v] = Isa::load(w + v * kW);
#pragma GCC unroll 16
          for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
            for (std::size_t x = 0; x < RX; ++x) {
              const V xv = Isa::bcast(row[t * d.row_step + x * d.step + kx]);
#pragma GCC unroll 16
              for (std::size_t v = 0; v < NV; ++v) {
                acc[t][x][v] = Isa::add(acc[t][x][v], Isa::mul(wv[v], xv));
              }
            }
          }
        }
      }
    }
    constexpr std::size_t kChannels = NV * kW;
    alignas(64) float tile[RY * RX * kChannels];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < NV; ++v) {
      const V b = bias != nullptr ? Isa::load(bias + v * kW) : Isa::zero();
#pragma GCC unroll 16
      for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
        for (std::size_t x = 0; x < RX; ++x) {
          const V sum = bias != nullptr ? Isa::add(acc[t][x][v], b) : acc[t][x][v];
          Isa::store(tile + (t * RX + x) * kChannels + v * kW, sum);
        }
      }
    }
    const std::size_t n = d.oh * d.ow;
    for (std::size_t o = 0; o < kChannels; ++o) {
#pragma GCC unroll 16
      for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
        for (std::size_t x = 0; x < RX; ++x) {
          out[o * n + t * d.ow + x] = tile[(t * RX + x) * kChannels + o];
        }
      }
    }
  }

  /// A tile of `pixels` (1..RX) pixels per row: RX is a compile-time count,
  /// so each pixel's input offset is an immediate when the step is 1.
  template <std::size_t NV, std::size_t RY, std::size_t RX>
  static MACH_INLINE void direct_fringe(std::size_t pixels,
                                        const DirectGeometry& d,
                                        const float* in, const float* w,
                                        const float* bias, float* out) {
    if constexpr (RX > 1) {
      if (pixels < RX) {
        direct_fringe<NV, RY, RX - 1>(pixels, d, in, w, bias, out);
        return;
      }
    }
    direct_tile<NV, RY, RX>(d, in, w, bias, out);
  }

  /// RY output rows starting at oy, all columns, one block of NV vectors.
  template <std::size_t NV, std::size_t RY>
  static MACH_INLINE void direct_rows(const DirectGeometry& d,
                                      const float* padded, std::size_t oy,
                                      const float* w, const float* bias,
                                      float* out) {
    constexpr std::size_t kRX = kDirectPixels / (2 * NV);
    static_assert(kRX >= 1, "the direct tile holds at least one pixel");
    for (std::size_t ox = 0; ox < d.ow; ox += kRX) {
      direct_fringe<NV, RY, kRX>(min_size(kRX, d.ow - ox), d,
                                 padded + oy * d.row_step + ox * d.step, w,
                                 bias, out + oy * d.ow + ox);
    }
  }

  /// Every output pixel of one image for a block of NV channel vectors.
  template <std::size_t NV>
  static MACH_INLINE void direct_block(const DirectGeometry& d,
                                       const float* padded, const float* w,
                                       const float* bias, float* out) {
    std::size_t oy = 0;
    for (; oy + 2 <= d.oh; oy += 2) {
      direct_rows<NV, 2>(d, padded, oy, w, bias, out);
    }
    if (oy < d.oh) direct_rows<NV, 1>(d, padded, oy, w, bias, out);
  }

  /// The channel blocks [v0, vectors) of one image, kDirectNV vectors per
  /// block and a narrower last one.
  template <std::size_t NV>
  static MACH_INLINE void direct_blocks(const DirectGeometry& d,
                                        std::size_t vectors,
                                        const float* padded, const float* wt,
                                        const float* bias, float* out) {
    const std::size_t n = d.oh * d.ow;
    std::size_t v0 = 0;
    for (; v0 + NV <= vectors; v0 += NV) {
      direct_block<NV>(d, padded, wt + v0 * kW,
                       bias != nullptr ? bias + v0 * kW : nullptr,
                       out + v0 * kW * n);
    }
    if constexpr (NV > 1) {
      if (v0 < vectors) {
        direct_blocks<NV - 1>(d, vectors - v0, padded, wt + v0 * kW,
                              bias != nullptr ? bias + v0 * kW : nullptr,
                              out + v0 * kW * n);
      }
    }
  }

  /// Each image copied into the padded planes once, then every channel
  /// block over it.
  static MACH_INLINE void direct_images(const float* images, std::size_t count,
                                        const DirectGeometry& d,
                                        const float* wt, const float* bias,
                                        float* out, float* padded) {
    const ConvShape& s = d.s;
    const std::size_t image_size = s.channels * s.height * s.width;
    const std::size_t out_size = d.out_c * d.oh * d.ow;
    for (std::size_t img = 0; img < count; ++img) {
      pad_image(images + img * image_size, s, d.g, padded);
      direct_blocks<kDirectNV>(d, d.out_c / kW, padded, wt, bias,
                               out + img * out_size);
    }
  }

  /// conv_forward for out_c a multiple of kW (the dispatcher's direct_conv
  /// rule): the weights are transposed once per call into buf.a =
  /// [patch][out_c], and each image is copied once into the zero-padded
  /// planes in buf.b, which every tile reads in place (direct_tile). The
  /// sums are the packed path's: its KC blocks spill exact partial sums, so
  /// one unsplit chain per output matches it.
  static void conv_forward_direct(const float* images, std::size_t count,
                                  const ConvShape& s, ConstMat weight,
                                  const float* bias, float* out,
                                  PackBuffers buf) {
    const std::size_t out_c = weight.rows, patch = weight.cols;
    for (std::size_t p = 0; p < patch; ++p) {
      for (std::size_t o = 0; o < out_c; ++o) {
        buf.a[p * out_c + o] = weight.data[o * patch + p];
      }
    }
    const PaddedLayout g = padded_layout(s);
    for (std::size_t i = 0; i < g.image; ++i) buf.b[i] = 0.0f;
    DirectGeometry d{s,
                     g,
                     conv_out_extent(s.height, s),
                     conv_out_extent(s.width, s),
                     s.stride * g.wp,
                     s.stride,
                     out_c};
    if (s.stride == 1) {
      // A literal step: every pixel offset in a tile becomes an immediate.
      d.step = 1;
      direct_images(images, count, d, buf.a, bias, out, buf.b);
    } else {
      direct_images(images, count, d, buf.a, bias, out, buf.b);
    }
  }

  static void im2col(const float* image, const ConvShape& shape, float* cols) {
    const std::size_t oh = conv_out_extent(shape.height, shape);
    const std::size_t ow = conv_out_extent(shape.width, shape);
    const std::size_t n = oh * ow;
    image_panel(image, shape, oh, ow, 0,
                shape.channels * shape.kernel * shape.kernel, 0, n, n, cols);
  }

  /// One im2col row p = (channel, ky, kx) of a convolution: the input
  /// offset of its taps and the output pixels whose taps land inside the
  /// image.
  struct KernelRow {
    std::size_t channel;
    std::ptrdiff_t dy, dx;
    ValidRange ry, rx;
  };

  static MACH_INLINE KernelRow kernel_row(std::size_t p, const ConvShape& s,
                                          std::size_t oh, std::size_t ow) {
    const std::size_t taps = s.kernel * s.kernel;
    const auto pad = static_cast<std::ptrdiff_t>(s.pad);
    KernelRow row;
    row.channel = p / taps;
    row.dy = static_cast<std::ptrdiff_t>((p % taps) / s.kernel) - pad;
    row.dx = static_cast<std::ptrdiff_t>(p % s.kernel) - pad;
    row.ry = valid_range(row.dy, s.stride, s.height, oh);
    row.rx = valid_range(row.dx, s.stride, s.width, ow);
    return row;
  }

  /// Adds im2col row `row` (src, ow-wide output rows) into its channel
  /// plane of the image gradient: each valid output pixel adds into the
  /// input pixel its tap reads, so no pixel gets two additions.
  static MACH_INLINE void col2im_row(const float* src, const ConvShape& s,
                                     std::size_t ow, const KernelRow& row,
                                     float* plane) {
    for (std::size_t oy = row.ry.lo; oy < row.ry.hi; ++oy) {
      float* dst_row =
          plane + static_cast<std::size_t>(
                      static_cast<std::ptrdiff_t>(oy * s.stride) + row.dy) *
                      s.width;
      const float* src_row = src + oy * ow;
      for (std::size_t ox = row.rx.lo; ox < row.rx.hi; ++ox) {
        const auto ix = static_cast<std::ptrdiff_t>(ox * s.stride) + row.dx;
        dst_row[static_cast<std::size_t>(ix)] += src_row[ox];
      }
    }
  }

  /// Adjoint of im2col: accumulates cols into the (caller-initialised) image
  /// gradient. Each (channel, ky, kx) row adds at most one contribution to
  /// any pixel, and rows are applied in increasing order — exactly the
  /// additions of the reference loop, so every pixel's float chain matches.
  static void col2im(const float* cols, const ConvShape& s, float* grad) {
    const std::size_t oh = conv_out_extent(s.height, s);
    const std::size_t ow = conv_out_extent(s.width, s);
    const std::size_t n = oh * ow;
    const std::size_t patch = s.channels * s.kernel * s.kernel;
    for (std::size_t p = 0; p < patch; ++p) {
      const KernelRow row = kernel_row(p, s, oh, ow);
      col2im_row(cols + p * n, s, ow, row,
                 grad + row.channel * s.height * s.width);
    }
  }

  /// A kernel row p of a same-size conv (stride 1, output as wide as the
  /// input) as one contiguous run: output pixel j reads (im2col) or adds
  /// into (col2im) input pixel j + shift of the channel plane, and every
  /// valid tap lies in the non-empty [lo, hi). Border columns (ox outside
  /// rx) would wrap into a neighbouring row; `border` lists those whose
  /// wrapped pixel lies inside the plane. One run serves every image of a
  /// minibatch, so its geometry is worked out once per kernel row.
  static constexpr std::size_t kMaxBorder = 256;
  struct SameSizeRun {
    std::size_t lo = 0, hi = 0;
    std::ptrdiff_t shift = 0;
    std::size_t borders = 0;
    std::size_t border[kMaxBorder];
  };

  /// Fills `run` for `row`; false when the shape is not same-size, the row
  /// has no valid tap at all (a pad as large as the image), or it has more
  /// than kMaxBorder border pixels.
  static bool same_size_run(const ConvShape& s, std::size_t ow,
                            const KernelRow& row, SameSizeRun& run) {
    const ValidRange ry = row.ry, rx = row.rx;
    if (!same_size(s, ow) || ry.lo >= ry.hi || rx.lo >= rx.hi) return false;
    run.shift = row.dy * static_cast<std::ptrdiff_t>(s.width) + row.dx;
    run.borders = 0;
    const std::size_t oh = s.height;  // same-size
    if (oh * (ow - (rx.hi - rx.lo)) > kMaxBorder) return false;
    // Trim the run to the plane; the trimmed pixels are border columns.
    const auto plane_size = static_cast<std::ptrdiff_t>(s.height * s.width);
    auto lo = static_cast<std::ptrdiff_t>(ry.lo * ow);
    auto hi = static_cast<std::ptrdiff_t>(ry.hi * ow);
    if (lo + run.shift < 0) lo = -run.shift;
    if (hi + run.shift > plane_size) hi = plane_size - run.shift;
    run.lo = static_cast<std::size_t>(lo);
    run.hi = static_cast<std::size_t>(hi);
    const auto add_border = [&](std::size_t j) {
      const std::ptrdiff_t tap = static_cast<std::ptrdiff_t>(j) + run.shift;
      if (tap >= 0 && tap < plane_size) run.border[run.borders++] = j;
    };
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < rx.lo; ++ox) add_border(oy * ow + ox);
      for (std::size_t ox = rx.hi; ox < ow; ++ox) add_border(oy * ow + ox);
    }
    return true;
  }

  /// Sets the border pixels of a run's source row to +0.
  static MACH_INLINE void zero_borders(const SameSizeRun& run, float* row) {
    for (std::size_t b = 0; b < run.borders; ++b) row[run.border[b]] = 0.0f;
  }

  /// col2im row of one image along a run whose border pixels in `src` are
  /// +0 (zero_borders), so the run is one contiguous add: x + +0 is x for
  /// every x the gradient can hold (it starts at +0 and a sum is -0 only if
  /// both addends are). With `first` (the channel's first kernel row) the
  /// plane is written rather than added to: 0.0f + x inside the run and
  /// 0.0f outside, the values a zero fill followed by the add would leave.
  static MACH_INLINE void run_col2im(const SameSizeRun& run,
                                     std::size_t plane_size, bool first,
                                     const float* src, float* plane) {
    const std::size_t count = run.hi - run.lo;
    const auto start = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(run.lo) + run.shift);
    // The panel row and the gradient plane never overlap.
    float* __restrict dst = plane + start;
    const float* __restrict from = src + run.lo;
    if (first) {
      for (std::size_t t = 0; t < start; ++t) plane[t] = 0.0f;
      for (std::size_t t = 0; t < count; ++t) dst[t] = 0.0f + from[t];
      for (std::size_t t = start + count; t < plane_size; ++t) plane[t] = 0.0f;
    } else {
      for (std::size_t t = 0; t < count; ++t) dst[t] += from[t];
    }
  }

  /// gemm_nt over NV x NJ tiles of NI vectors: A is packed once over the full
  /// k (strips of NV * NI::kW rows, reused by every column tile); B rows are
  /// read in place.
  template <class NI, std::size_t NV, std::size_t NJ>
  static MACH_INLINE void nt_driver(ConstMat a, ConstMat b, Mat c,
                                    bool accumulate, PackBuffers buf) {
    constexpr std::size_t kRows = NV * NI::kW;
    const std::size_t m = a.rows, k = a.cols, n = b.rows;
    pack_a_n<kRows>(a.data, k, m, k, buf.a);
    for (std::size_t i0 = 0; i0 < m; i0 += kRows) {
      const std::size_t mr = min_size(kRows, m - i0);
      const float* ap = buf.a + (i0 / kRows) * k * kRows;
      for (std::size_t j0 = 0; j0 < n; j0 += NJ) {
        const std::size_t nr = min_size(NJ, n - j0);
        // Fringe columns re-read the last valid B row; their sums are
        // discarded below.
        const float* brows[NJ];
        for (std::size_t j = 0; j < NJ; ++j) {
          brows[j] = b.data + (j0 + (j < nr ? j : nr - 1)) * k;
        }
        alignas(64) float tile[NJ * kRows];
        micro_nt<NI, NV, NJ>({1, k, 0, 1}, ap, brows, tile);
        for (std::size_t i = 0; i < mr; ++i) {
          float* crow = c.data + (i0 + i) * c.cols + j0;
          for (std::size_t j = 0; j < nr; ++j) {
            const float base = accumulate ? crow[j] : 0.0f;
            crow[j] = base + tile[j * kRows + i];
          }
        }
      }
    }
  }

  static constexpr bool kHasNarrowNt = requires { typename Cfg::NarrowIsa; };

  static void gemm_nt(ConstMat a, ConstMat b, Mat c, bool accumulate,
                      PackBuffers buf) {
    if constexpr (kHasNarrowNt) {
      if (a.rows <= Cfg::NarrowIsa::kW) {
        nt_driver<typename Cfg::NarrowIsa, 1, Cfg::kNarrowNtNR>(a, b, c,
                                                               accumulate, buf);
        return;
      }
    }
    nt_driver<Isa, kNtNV, kNtNR>(a, b, c, accumulate, buf);
  }

  // -------------------------------------------------------------------------
  // Convolution backward over a minibatch
  // -------------------------------------------------------------------------

  static constexpr std::size_t round_up(std::size_t x, std::size_t to) {
    return (x + to - 1) / to * to;
  }

  /// Rows per weight-gradient strip: gemm_nt's tile for m = out_c.
  static constexpr std::size_t dw_rows(std::size_t out_c) {
    if constexpr (kHasNarrowNt) {
      if (out_c <= Cfg::NarrowIsa::kW) return Cfg::NarrowIsa::kW;
    }
    return kNtMR;
  }

  /// Images per input-gradient block: as many whole images as fit
  /// kDxBlockColumns output columns, at least one. Blocks never split an
  /// image, so each pixel gets all its contributions inside one block; a
  /// block's panel (MR rows of it) stays within L1-sized scratch, and each
  /// kernel row's geometry is worked out once per block.
  static constexpr std::size_t kDxBlockColumns = 1024;
  static std::size_t dx_block_images(std::size_t count, std::size_t n) {
    return min_size(count, n >= kDxBlockColumns ? 1 : kDxBlockColumns / n);
  }

  /// Offsets of conv_backward's scratch spans (in floats) and their total.
  struct BackwardScratch {
    std::size_t gout = 0;    // count x grad_out packed in dw_rows strips
    std::size_t padded = 0;  // count x the input image in padded planes
    std::size_t wpack = 0;   // Wᵀ packed in MR-row strips over k = out_c
    std::size_t bpack = 0;   // one block's straddling grad_out NR strips
    std::size_t panel = 0;   // one row tile of the block's column gradients
    std::size_t total = 0;
  };

  /// Whether a conv is same-size: stride 1, output as wide as the input.
  static constexpr bool same_size(const ConvShape& s, std::size_t ow) {
    return s.stride == 1 && ow == s.width;
  }

  static BackwardScratch backward_scratch(std::size_t count,
                                          const ConvShape& s,
                                          std::size_t out_c,
                                          bool input_grad) {
    const std::size_t n =
        conv_out_extent(s.height, s) * conv_out_extent(s.width, s);
    const std::size_t patch = s.channels * s.kernel * s.kernel;
    BackwardScratch at;
    at.padded = count * round_up(out_c, dw_rows(out_c)) * n;
    at.total = at.padded + count * padded_layout(s).image;
    if (input_grad) {
      const std::size_t cols = round_up(dx_block_images(count, n) * n, kNR);
      at.wpack = at.total;
      at.bpack = at.wpack + round_up(patch, kMR) * out_c;
      // NR strips straddle two images (and need packing) only when n is not
      // a multiple of NR.
      at.panel = at.bpack + (n % kNR == 0 ? 0 : out_c * cols);
      at.total = at.panel + kMR * cols;
    }
    return at;
  }

  static std::size_t conv_backward_scratch(std::size_t count,
                                           const ConvShape& shape,
                                           std::size_t out_c,
                                           bool input_grad) {
    return backward_scratch(count, shape, out_c, input_grad).total;
  }

  /// Weight and bias gradients over `count` images, read from their padded
  /// planes (`padded`, padded_layout(s).image floats per image). Each
  /// image's dot products (and bias rows) are summed into fresh accumulators
  /// in increasing pixel order, and the per-image results are added to the
  /// running tile in image order: the chains of one gemm_nt(accumulate) over
  /// the image's im2col matrix and one bias row sum per image. A tile's taps
  /// are broadcast from the padded planes one output row at a time (a
  /// micro_nt walk), so no im2col matrix exists. The image loop runs inside
  /// the tile loop, so every dW tile is transposed and written back once.
  /// The running sums start from zero (0.0f + the first image's sum, as
  /// after a zero fill) or, with accumulate, from the stored gradients.
  template <class NI, std::size_t NV, std::size_t NJ>
  static void weight_grad(const float* grad_out, std::size_t count,
                          const ConvShape& s, std::size_t out_c,
                          const float* padded, float* grad_weight,
                          float* grad_bias, bool accumulate, float* gpack) {
    using NV_t = typename NI::V;
    constexpr std::size_t kRows = NV * NI::kW;
    const std::size_t oh = conv_out_extent(s.height, s);
    const std::size_t ow = conv_out_extent(s.width, s);
    const std::size_t n = oh * ow, patch = s.channels * s.kernel * s.kernel;
    const PaddedLayout g = padded_layout(s);
    const NtWalk walk{oh, ow, s.stride * g.wp, s.stride};
    const std::size_t strips = (out_c + kRows - 1) / kRows;
    const std::size_t strip_size = n * kRows;
    for (std::size_t img = 0; img < count; ++img) {
      pack_a_n<kRows>(grad_out + img * out_c * n, n, out_c, n,
                      gpack + img * strips * strip_size);
    }
    for (std::size_t st = 0; st < strips; ++st) {
      const std::size_t i0 = st * kRows;
      const std::size_t mr = min_size(kRows, out_c - i0);
      const auto strip = [&](std::size_t img) {
        return gpack + (img * strips + st) * strip_size;
      };
      // Bias: the packed strip holds pixel q's rows side by side, so the
      // kRows row sums run as interleaved chains, one per vector lane.
      alignas(64) float bsum[kRows];
      for (std::size_t r = 0; r < kRows; ++r) {
        bsum[r] = accumulate && r < mr ? grad_bias[i0 + r] : 0.0f;
      }
      for (std::size_t img = 0; img < count; ++img) {
        const float* ap = strip(img);
        NV_t acc[NV];
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) acc[v] = NI::zero();
        for (std::size_t q = 0; q < n; ++q) {
#pragma GCC unroll 16
          for (std::size_t v = 0; v < NV; ++v) {
            acc[v] = NI::add(acc[v], NI::load(ap + q * kRows + v * NI::kW));
          }
        }
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) {
          float* b = bsum + v * NI::kW;
          NI::store(b, NI::add(NI::load(b), acc[v]));
        }
      }
      for (std::size_t r = 0; r < mr; ++r) grad_bias[i0 + r] = bsum[r];

      for (std::size_t j0 = 0; j0 < patch; j0 += NJ) {
        const std::size_t nr = min_size(NJ, patch - j0);
        alignas(64) float tile[NJ * kRows];
        for (std::size_t j = 0; j < NJ; ++j) {
          for (std::size_t i = 0; i < kRows; ++i) {
            tile[j * kRows + i] = accumulate && i < mr && j < nr
                                      ? grad_weight[(i0 + i) * patch + j0 + j]
                                      : 0.0f;
          }
        }
        // Fringe columns re-read the last valid tap; their sums are
        // discarded below.
        std::size_t taps[NJ];
        for (std::size_t j = 0; j < NJ; ++j) {
          taps[j] = tap_offset(j0 + (j < nr ? j : nr - 1), s, g);
        }
        for (std::size_t img = 0; img < count; ++img) {
          const float* image = padded + img * g.image;
          const float* brows[NJ];
          for (std::size_t j = 0; j < NJ; ++j) brows[j] = image + taps[j];
          micro_nt<NI, NV, NJ, true>(walk, strip(img), brows, tile);
        }
        for (std::size_t i = 0; i < mr; ++i) {
          float* drow = grad_weight + (i0 + i) * patch + j0;
          for (std::size_t j = 0; j < nr; ++j) drow[j] = tile[j * kRows + i];
        }
      }
    }
  }

  /// Input gradient over `count` images: dX = col2im(Wᵀ · grad_out) per
  /// image. The GEMM runs over blocks of whole images laid side by side
  /// along n, with Wᵀ packed once, and col2im is fused into it: a row tile
  /// of kernel offsets p is computed across every column of the block into
  /// `panel`, then its rows are added into the image gradients in
  /// increasing p before the next row tile starts. Each column-gradient
  /// element is the fresh k = out_c chain of gemm_tn, and each pixel adds
  /// its contributions in col2im's order. On same-size runs a channel
  /// plane's first offset row writes it (0.0f + x, or 0.0f where that row
  /// has no tap) instead of adding, so no zero fill is needed; other shapes
  /// zero the plane just before that row.
  static void input_grad(const float* grad_out, std::size_t count,
                         const ConvShape& s, ConstMat weight,
                         float* grad_images, const BackwardScratch& at,
                         float* scratch) {
    const std::size_t oh = conv_out_extent(s.height, s);
    const std::size_t ow = conv_out_extent(s.width, s);
    const std::size_t n = oh * ow;
    const std::size_t out_c = weight.rows, patch = weight.cols;
    const std::size_t taps = s.kernel * s.kernel;
    const std::size_t plane = s.height * s.width;
    const std::size_t image_size = s.channels * plane;
    float* wpack = scratch + at.wpack;
    float* bpack = scratch + at.bpack;
    float* panel = scratch + at.panel;
    pack_a_t(weight.data, patch, patch, out_c, wpack);
    const std::size_t per_block = dx_block_images(count, n);
    for (std::size_t img0 = 0; img0 < count; img0 += per_block) {
      const std::size_t images = min_size(per_block, count - img0);
      const std::size_t cols = images * n;
      const std::size_t ldp = round_up(cols, kNR);
      // B: the block's output gradients, column img * n + q of row o being
      // grad_out[img0 + img][o][q]. An NR-wide strip inside one image's
      // row is read in place (rows n apart); strips that straddle two
      // images or run past the block are packed, zero-padded, into bpack.
      const float* gout = grad_out + img0 * out_c * n;
      const auto in_place = [&](std::size_t j0) { return j0 % n + kNR <= n; };
      for (std::size_t j0 = 0; j0 < ldp; j0 += kNR) {
        if (in_place(j0)) continue;
        float* strip = bpack + j0 * out_c;
        for (std::size_t o = 0; o < out_c; ++o) {
          std::size_t img = j0 / n, q = j0 % n;
          for (std::size_t j = 0; j < kNR; ++j) {
            strip[o * kNR + j] =
                img < images ? gout[(img * out_c + o) * n + q] : 0.0f;
            if (++q == n) {
              q = 0;
              ++img;
            }
          }
        }
      }
      float* block_grad = grad_images + img0 * image_size;
      SameSizeRun run;
      for (std::size_t i0 = 0; i0 < patch; i0 += kMR) {
        const float* ap = wpack + (i0 / kMR) * out_c * kMR;
        for (std::size_t j0 = 0; j0 < ldp; j0 += kNR) {
          if (in_place(j0)) {
            micro_nn(out_c, ap, gout + (j0 / n * out_c) * n + j0 % n, n,
                     panel + j0, ldp, /*zero_init=*/true, nullptr, nullptr);
          } else {
            micro_nn(out_c, ap, bpack + j0 * out_c, kNR, panel + j0, ldp,
                     /*zero_init=*/true, nullptr, nullptr);
          }
        }
        const std::size_t mr = min_size(kMR, patch - i0);
        for (std::size_t r = 0; r < mr; ++r) {
          const KernelRow row = kernel_row(i0 + r, s, oh, ow);
          const bool first = (i0 + r) % taps == 0;
          float* src = panel + r * ldp;
          float* target = block_grad + row.channel * plane;
          if (same_size_run(s, ow, row, run)) {
            // Borders of every image first, so no add reloads a lane just
            // stored.
            for (std::size_t img = 0; img < images; ++img) {
              zero_borders(run, src + img * n);
            }
            for (std::size_t img = 0; img < images; ++img) {
              run_col2im(run, plane, first, src + img * n,
                         target + img * image_size);
            }
            continue;
          }
          for (std::size_t img = 0; img < images; ++img) {
            float* image_target = target + img * image_size;
            if (first) {
              for (std::size_t t = 0; t < plane; ++t) image_target[t] = 0.0f;
            }
            col2im_row(src + img * n, s, ow, row, image_target);
          }
        }
      }
    }
  }

  /// conv_forward's backward over `count` images (kernels.h): every image
  /// copied once into zero-padded planes, then weight_grad and, when
  /// grad_images is not null, input_grad. `scratch` holds
  /// conv_backward_scratch(count, ...) floats.
  static void conv_backward(const float* images, std::size_t count,
                            const ConvShape& s, ConstMat weight,
                            const float* grad_out, float* grad_images,
                            float* grad_weight, float* grad_bias,
                            bool accumulate, float* scratch) {
    const std::size_t out_c = weight.rows;
    const BackwardScratch at =
        backward_scratch(count, s, out_c, grad_images != nullptr);
    const PaddedLayout g = padded_layout(s);
    float* padded = scratch + at.padded;
    for (std::size_t i = 0; i < count * g.image; ++i) padded[i] = 0.0f;
    const std::size_t image_size = s.channels * s.height * s.width;
    for (std::size_t img = 0; img < count; ++img) {
      pad_image(images + img * image_size, s, g, padded + img * g.image);
    }
    bool narrow = false;
    if constexpr (kHasNarrowNt) {
      if (out_c <= Cfg::NarrowIsa::kW) {
        narrow = true;
        weight_grad<typename Cfg::NarrowIsa, 1, Cfg::kNarrowNtNR>(
            grad_out, count, s, out_c, padded, grad_weight, grad_bias,
            accumulate, scratch + at.gout);
      }
    }
    if (!narrow) {
      weight_grad<Isa, kNtNV, kNtNR>(grad_out, count, s, out_c, padded,
                                     grad_weight, grad_bias, accumulate,
                                     scratch + at.gout);
    }
    if (grad_images != nullptr) {
      input_grad(grad_out, count, s, weight, grad_images, at, scratch);
    }
  }

  static constexpr NtBlocking nt_blocking() {
    if constexpr (kHasNarrowNt) {
      return {kNtMR, kNtNR, Cfg::NarrowIsa::kW, Cfg::kNarrowNtNR};
    } else {
      return {kNtMR, kNtNR, 0, 0};
    }
  }

  static constexpr GemmVariant variant(common::GemmIsa isa) {
    return {isa,
            kW,
            {kMR, kNR, kKC, kMC, kNC},
            nt_blocking(),
            &gemm_nn,
            &gemm_tn,
            &gemm_nt,
            &gemm_nn_unpacked,
            &gemm_tn_unpacked,
            &conv_forward,
            &conv_forward_direct,
            &conv_backward_scratch,
            &conv_backward,
            &im2col,
            &col2im,
            Cfg::squared_norms};
  }
};

}  // namespace
}  // namespace mach::tensor::kernels::detail
