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
// conv_backward runs a whole minibatch in blocks of kW images with the
// images in the vector lanes: each image's chains of the reference
// composition run side by side, so the input gradient needs no column panel
// or col2im and every layer's weight gradient runs at full vector width
// (see the lanes section below).
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
/// In-register 8x8 transpose: on return r[j] holds element j of the rows
/// passed in, lane l from row l.
MACH_INLINE void transpose8(__m256 (&r)[8]) {
  __m256 t[8], u[8];
#pragma GCC unroll 8
  for (std::size_t l = 0; l < 8; l += 2) {
    t[l] = _mm256_unpacklo_ps(r[l], r[l + 1]);
    t[l + 1] = _mm256_unpackhi_ps(r[l], r[l + 1]);
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
    r[j] = _mm256_permute2f128_ps(u[j], u[j + 4], 0x20);
    r[j + 4] = _mm256_permute2f128_ps(u[j], u[j + 4], 0x31);
  }
}

/// 8x8 transpose: on return col[j] holds row[l][i + j] in lane l.
MACH_INLINE void transpose8x8(const float* const (&row)[kMaxNormLanes],
                              std::size_t i, __m256 (&col)[kMaxNormLanes]) {
#pragma GCC unroll 8
  for (std::size_t l = 0; l < 8; ++l) col[l] = _mm256_loadu_ps(row[l] + i);
  transpose8(col);
}
#endif

/// Cfg provides:
///   Isa            vector traits: V, kW lanes, zero/load/store/bcast/add/mul,
///                  load_n/store_n (the first count lanes only) and an
///                  in-register kW x kW transpose
///   kMR, kNV       gemm_nn/gemm_tn register tile: kMR rows x kNV vectors
///   kKC, kMC, kNC  cache blocks (kMC % kMR == 0, kNC % (kNV * kW) == 0)
///   kNtNV, kNtNR   gemm_nt tile: kNtNV vectors of rows x kNtNR columns
///   kDirectNV, kDirectPixels  conv_forward_direct tile
///   kDwChannels, kDwTaps  conv_backward's weight-gradient lanes tile
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

  /// gemm_nt tile in dot-product form, computed transposed: the lanes of NV
  /// NI vectors run over NV * NI::kW rows of C (a packed A strip), the NJ
  /// columns come from the B rows `brows`, broadcast one element at a time.
  /// Fresh accumulators sum the k products in increasing order;
  /// tile[j * NV * NI::kW + i] receives the sums.
  template <class NI, std::size_t NV, std::size_t NJ>
  static MACH_INLINE void micro_nt(std::size_t k, const float* ap,
                                   const float* const* brows, float* tile) {
    using NV_t = typename NI::V;
    constexpr std::size_t kRows = NV * NI::kW;
    NV_t acc[NJ][NV];
#pragma GCC unroll 32
    for (std::size_t j = 0; j < NJ; ++j) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) acc[j][v] = NI::zero();
    }
    for (std::size_t p = 0; p < k; ++p, ap += kRows) {
      NV_t a[NV];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) a[v] = NI::load(ap + v * NI::kW);
#pragma GCC unroll 32
      for (std::size_t j = 0; j < NJ; ++j) {
        const NV_t bv = NI::bcast(brows[j][p]);
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) {
          acc[j][v] = NI::add(acc[j][v], NI::mul(a[v], bv));
        }
      }
    }
#pragma GCC unroll 32
    for (std::size_t j = 0; j < NJ; ++j) {
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) {
        NI::store(tile + j * kRows + v * NI::kW, acc[j][v]);
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
        micro_nt<NI, NV, NJ>(k, ap, brows, tile);
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
  // Convolution backward: a block of kW images in the vector lanes
  // -------------------------------------------------------------------------
  //
  // conv_backward runs a minibatch as blocks of kW images, the last one
  // possibly partial. Inside a block element e of all its images is one
  // vector ("lanes"), lane l holding image l, so every image's float chains
  // of the reference composition run side by side, a full block at full
  // vector width whatever the channel count or plane size. Lanes past the
  // block's `live` images hold +0 and are never stored or reduced, but they
  // are computed: a partial block costs a whole one.

  /// Rows into lanes: the vector of element t holds src[l * stride + t] in
  /// lane l < live and +0 in the others; put(v) receives them for t = 0 ..
  /// len - 1 in order. Each kW x kW block is transposed in registers.
  template <class Put>
  static MACH_INLINE void to_lanes(const float* src, std::size_t stride,
                                   std::size_t len, std::size_t live,
                                   Put&& put) {
    for (std::size_t t0 = 0; t0 < len; t0 += kW) {
      const std::size_t cols = min_size(kW, len - t0);
      V r[kW];
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kW; ++l) {
        if (l >= live) {
          r[l] = Isa::zero();
        } else if (cols == kW) {
          r[l] = Isa::load(src + l * stride + t0);
        } else {
          r[l] = Isa::load_n(src + l * stride + t0, cols);
        }
      }
      Isa::transpose(r);
#pragma GCC unroll 16
      for (std::size_t j = 0; j < kW; ++j) {
        if (j < cols) put(r[j]);
      }
    }
  }

  /// The inverse for `len` consecutive lane vectors: dst[l * stride + t] =
  /// lane l of lanes[t], written for l < live only.
  static MACH_INLINE void from_lanes(const float* lanes, std::size_t len,
                                     std::size_t live, float* dst,
                                     std::size_t stride) {
    for (std::size_t t0 = 0; t0 < len; t0 += kW) {
      const std::size_t cols = min_size(kW, len - t0);
      V r[kW];
#pragma GCC unroll 16
      for (std::size_t j = 0; j < kW; ++j) {
        r[j] = j < cols ? Isa::load(lanes + (t0 + j) * kW) : Isa::zero();
      }
      Isa::transpose(r);
#pragma GCC unroll 16
      for (std::size_t l = 0; l < kW; ++l) {
        if (l >= live) break;
        float* row = dst + l * stride + t0;
        if (cols == kW) {
          Isa::store(row, r[l]);
        } else {
          Isa::store_n(row, r[l], cols);
        }
      }
    }
  }

  /// Adds per-image sums to `cols` (1..kW) running gradients in image
  /// order: sums + j * kW holds output j's sums (lane l: image l's), and
  /// out[j] becomes ((start + lane 0) + lane 1) + ... over the live lanes,
  /// start being +0 (first) or out[j]. One transpose turns the images into
  /// vectors, so the ordered sums run kW outputs at a time.
  static MACH_INLINE void add_lanes(const float* sums, std::size_t cols,
                                    std::size_t live, bool first, float* out) {
    V r[kW];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < kW; ++j) {
      r[j] = j < cols ? Isa::load(sums + j * kW) : Isa::zero();
    }
    Isa::transpose(r);
    const bool whole = cols == kW;
    V run = first   ? Isa::zero()
            : whole ? Isa::load(out)
                    : Isa::load_n(out, cols);
#pragma GCC unroll 16
    for (std::size_t l = 0; l < kW; ++l) {
      if (l < live) run = Isa::add(run, r[l]);
    }
    if (whole) {
      Isa::store(out, run);
    } else {
      Isa::store_n(out, run, cols);
    }
  }

  /// One block's geometry. The lane buffers hold kW floats per element: dY
  /// as [o][q], the input images in zero-padded planes [c][y][x] (the
  /// direct forward's layout, g), dX as unpadded [c][y][x].
  struct LaneGeometry {
    const ConvShape& s;
    PaddedLayout g;
    std::size_t oh, ow, n;  // output rows, columns and pixels
    std::size_t plane;      // input pixels per channel
    std::size_t out_c;
  };

  /// Register budget of the lanes kernels: dW tiles of kDwChannels output
  /// channels x kDwTaps taps (per variant), dX tiles of kDxChannels input
  /// channels (8 measured fastest on every variant).
  static constexpr std::size_t kDwChannels = Cfg::kDwChannels;
  static constexpr std::size_t kDwTaps = Cfg::kDwTaps;
  static constexpr std::size_t kDxChannels = 8;

  /// R interleaved bias chains: lane l of sums + j * kW becomes image l's
  /// +0 + dY[j][0] + dY[j][1] + ... over the n output pixels, for the R
  /// output channels whose lanes start at dy, n * kW floats apart.
  template <std::size_t R>
  static MACH_INLINE void bias_sums(std::size_t n, const float* dy,
                                    float* sums) {
    V acc[R];
#pragma GCC unroll 16
    for (std::size_t j = 0; j < R; ++j) acc[j] = Isa::zero();
    for (std::size_t q = 0; q < n; ++q, dy += kW) {
#pragma GCC unroll 16
      for (std::size_t j = 0; j < R; ++j) {
        acc[j] = Isa::add(acc[j], Isa::load(dy + j * n * kW));
      }
    }
#pragma GCC unroll 16
    for (std::size_t j = 0; j < R; ++j) Isa::store(sums + j * kW, acc[j]);
  }

  /// bias_sums over `rows` (1..R) output channels.
  template <std::size_t R>
  static MACH_INLINE void bias_fringe(std::size_t rows, std::size_t n,
                                      const float* dy, float* sums) {
    if constexpr (R > 1) {
      if (rows < R) {
        bias_fringe<R - 1>(rows, n, dy, sums);
        return;
      }
    }
    bias_sums<R>(n, dy, sums);
  }

  /// RO output channels x RT taps of the weight gradient: lane l of each
  /// accumulator is image l's fresh chain of dY[o][q] * X[tap(p, q)] over
  /// the output pixels q in increasing order, with X read from the padded
  /// lane planes (a margin tap reads +0, the value im2col writes). `dy` is
  /// the first channel's lanes, `taps` the taps' offsets in the planes;
  /// chain (r, t) is stored at sums + (r * kW + t) * kW.
  template <std::size_t RO, std::size_t RT>
  static MACH_INLINE void dw_tile(const LaneGeometry& d, const float* dy,
                                  const float* xl, const std::size_t* taps,
                                  float* sums) {
    V acc[RO][RT];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < RO; ++r) {
#pragma GCC unroll 16
      for (std::size_t t = 0; t < RT; ++t) acc[r][t] = Isa::zero();
    }
    std::size_t tap[RT];
#pragma GCC unroll 16
    for (std::size_t t = 0; t < RT; ++t) tap[t] = taps[t];
    const std::size_t dy_step = d.n * kW;
    const std::size_t row_step = d.s.stride * d.g.wp * kW;
    const std::size_t step = d.s.stride * kW;
    for (std::size_t oy = 0; oy < d.oh; ++oy, xl += row_step) {
      const float* x = xl;
      for (std::size_t ox = 0; ox < d.ow; ++ox, x += step, dy += kW) {
        V g[RO];
#pragma GCC unroll 16
        for (std::size_t r = 0; r < RO; ++r) g[r] = Isa::load(dy + r * dy_step);
#pragma GCC unroll 16
        for (std::size_t t = 0; t < RT; ++t) {
          const V xv = Isa::load(x + tap[t]);
#pragma GCC unroll 16
          for (std::size_t r = 0; r < RO; ++r) {
            acc[r][t] = Isa::add(acc[r][t], Isa::mul(g[r], xv));
          }
        }
      }
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < RO; ++r) {
#pragma GCC unroll 16
      for (std::size_t t = 0; t < RT; ++t) {
        Isa::store(sums + (r * kW + t) * kW, acc[r][t]);
      }
    }
  }

  /// dw_tile over `count` (1..RT) taps.
  template <std::size_t RO, std::size_t RT>
  static MACH_INLINE void dw_tap_fringe(std::size_t count,
                                        const LaneGeometry& d, const float* dy,
                                        const float* xl,
                                        const std::size_t* taps, float* sums) {
    if constexpr (RT > 1) {
      if (count < RT) {
        dw_tap_fringe<RO, RT - 1>(count, d, dy, xl, taps, sums);
        return;
      }
    }
    dw_tile<RO, RT>(d, dy, xl, taps, sums);
  }

  /// Output channels [o0, out_c) over a panel of `cols` (1..kW) taps
  /// starting at p0: RO channels at a time (fewer at the end), each
  /// channel's chains added to its dW row in image order.
  template <std::size_t RO>
  static MACH_INLINE void dw_panel(const LaneGeometry& d, std::size_t o0,
                                   std::size_t p0, std::size_t cols,
                                   const std::size_t* taps, const float* dyl,
                                   const float* xl, std::size_t live,
                                   bool first, float* grad_weight) {
    const std::size_t patch = d.s.channels * d.s.kernel * d.s.kernel;
    alignas(64) float sums[RO * kW * kW];
    for (; o0 + RO <= d.out_c; o0 += RO) {
      const float* dy = dyl + o0 * d.n * kW;
      for (std::size_t t0 = 0; t0 < cols; t0 += kDwTaps) {
        dw_tap_fringe<RO, kDwTaps>(min_size(kDwTaps, cols - t0), d, dy, xl,
                                   taps + t0, sums + t0 * kW);
      }
#pragma GCC unroll 16
      for (std::size_t r = 0; r < RO; ++r) {
        add_lanes(sums + r * kW * kW, cols, live, first,
                  grad_weight + (o0 + r) * patch + p0);
      }
    }
    if constexpr (RO > 1) {
      if (o0 < d.out_c) {
        dw_panel<RO - 1>(d, o0, p0, cols, taps, dyl, xl, live, first,
                         grad_weight);
      }
    }
  }

  /// db and dW of one block, from its dY lanes and padded input lanes,
  /// added in image order to the running gradients (from +0 when `first`).
  static void weight_grad(const LaneGeometry& d, const float* dyl,
                          const float* xl, std::size_t live, bool first,
                          float* grad_weight, float* grad_bias) {
    const ConvShape& s = d.s;
    alignas(64) float sums[kW * kW];
    for (std::size_t o0 = 0; o0 < d.out_c; o0 += kW) {
      const std::size_t cols = min_size(kW, d.out_c - o0);
      for (std::size_t j = 0; j < cols; j += kDwChannels) {
        bias_fringe<kDwChannels>(min_size(kDwChannels, cols - j), d.n,
                                 dyl + (o0 + j) * d.n * kW, sums + j * kW);
      }
      add_lanes(sums, cols, live, first, grad_bias + o0);
    }
    const std::size_t patch = s.channels * s.kernel * s.kernel;
    for (std::size_t p0 = 0; p0 < patch; p0 += kW) {
      const std::size_t cols = min_size(kW, patch - p0);
      std::size_t taps[kW];
      for (std::size_t j = 0; j < cols; ++j) {
        taps[j] = tap_offset(p0 + j, s, d.g) * kW;
      }
      dw_panel<kDwChannels>(d, 0, p0, cols, taps, dyl, xl, live, first,
                            grad_weight);
    }
  }

  /// The kernel offsets along one axis that carry input row (or column) i
  /// to an output pixel: first, first + stride, ... (count of them, in
  /// increasing order), reaching output rows out, out - 1, ...
  struct TapRun {
    std::size_t first = 0, count = 0, out = 0;
  };

  static MACH_INLINE TapRun tap_run(std::size_t i, const ConvShape& s,
                                    std::size_t out_extent) {
    // Offset k reaches output o = (i + pad - k) / stride when the division
    // is exact and 0 <= o < out_extent.
    const auto at = static_cast<std::ptrdiff_t>(i + s.pad);
    const auto stride = static_cast<std::ptrdiff_t>(s.stride);
    std::ptrdiff_t lo =
        at - static_cast<std::ptrdiff_t>(out_extent - 1) * stride;
    if (lo < 0) lo = 0;
    std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(s.kernel) - 1;
    if (hi > at) hi = at;
    const std::ptrdiff_t first = lo + (at - lo) % stride;
    if (first > hi) return {};
    return {static_cast<std::size_t>(first),
            static_cast<std::size_t>((hi - first) / stride + 1),
            static_cast<std::size_t>((at - first) / stride)};
  }

  /// dX of one input pixel for C input channels, in lanes: a running value
  /// starts at +0 and, for each tap (ky, kx) in increasing order that
  /// reaches an output pixel q, adds a fresh chain of W[o][c, ky, kx] *
  /// dY[o][q] over o in increasing order (the weight broadcast) — gemm_tn's
  /// column-gradient chain, then col2im's additions. Taps that reach no
  /// output pixel add nothing, as in col2im: they are skipped, never
  /// multiplied by a zero margin (an infinite weight would make NaN).
  /// `wt` is the block's first channel in the [tap][o][c] weights.
  template <std::size_t C>
  static MACH_INLINE void dx_pixel(const LaneGeometry& d, TapRun ry,
                                   TapRun rx, const float* dyl,
                                   const float* wt, float* out) {
    const ConvShape& s = d.s;
    const std::size_t dy_step = d.n * kW;
    V run[C];
#pragma GCC unroll 16
    for (std::size_t c = 0; c < C; ++c) run[c] = Isa::zero();
    for (std::size_t a = 0; a < ry.count; ++a) {
      const std::size_t ky = ry.first + a * s.stride, oy = ry.out - a;
      for (std::size_t b = 0; b < rx.count; ++b) {
        const std::size_t kx = rx.first + b * s.stride, ox = rx.out - b;
        const float* g = dyl + (oy * d.ow + ox) * kW;
        const float* w = wt + (ky * s.kernel + kx) * d.out_c * s.channels;
        V chain[C];
#pragma GCC unroll 16
        for (std::size_t c = 0; c < C; ++c) chain[c] = Isa::zero();
        for (std::size_t o = 0; o < d.out_c;
             ++o, g += dy_step, w += s.channels) {
          const V gv = Isa::load(g);
#pragma GCC unroll 16
          for (std::size_t c = 0; c < C; ++c) {
            chain[c] = Isa::add(chain[c], Isa::mul(Isa::bcast(w[c]), gv));
          }
        }
#pragma GCC unroll 16
        for (std::size_t c = 0; c < C; ++c) run[c] = Isa::add(run[c], chain[c]);
      }
    }
#pragma GCC unroll 16
    for (std::size_t c = 0; c < C; ++c) {
      Isa::store(out + c * d.plane * kW, run[c]);
    }
  }

  /// dX lanes of input channels [c0, channels), C at a time and fewer at
  /// the end, every input pixel of the block.
  template <std::size_t C>
  static MACH_INLINE void dx_channels(const LaneGeometry& d, std::size_t c0,
                                      const float* dyl, const float* wt,
                                      float* dxl) {
    const ConvShape& s = d.s;
    for (; c0 + C <= s.channels; c0 += C) {
      float* out = dxl + c0 * d.plane * kW;
      for (std::size_t iy = 0; iy < s.height; ++iy) {
        const TapRun ry = tap_run(iy, s, d.oh);
        for (std::size_t ix = 0; ix < s.width; ++ix, out += kW) {
          dx_pixel<C>(d, ry, tap_run(ix, s, d.ow), dyl, wt + c0, out);
        }
      }
    }
    if constexpr (C > 1) {
      if (c0 < s.channels) dx_channels<C - 1>(d, c0, dyl, wt, dxl);
    }
  }

  /// Offsets of conv_backward's scratch spans (in floats) and their total:
  /// one block's dY lanes, its padded input lanes (which hold the block's
  /// dX lanes first, when there is an input gradient) and, with dX, the
  /// weights as [tap][o][c].
  struct BackwardScratch {
    std::size_t dy = 0, planes = 0, wt = 0, total = 0;
  };

  static BackwardScratch backward_scratch(const ConvShape& s,
                                          std::size_t out_c, bool input_grad) {
    const std::size_t n =
        conv_out_extent(s.height, s) * conv_out_extent(s.width, s);
    BackwardScratch at;
    at.planes = out_c * n * kW;
    at.total = at.planes + padded_image_floats(s) * kW;
    if (input_grad) {
      at.wt = at.total;
      at.total = at.wt + out_c * s.channels * s.kernel * s.kernel;
    }
    return at;
  }

  static std::size_t conv_backward_scratch(const ConvShape& shape,
                                           std::size_t out_c,
                                           bool input_grad) {
    return backward_scratch(shape, out_c, input_grad).total;
  }

  /// conv_forward's backward over `count` images (kernels.h), kW images
  /// per block: each block's dY is transposed into lanes; with grad_images
  /// its dX is computed in lanes and transposed back; then its input images
  /// go into the padded lane planes and its dW and db chains are added to
  /// the running gradients in image order. `scratch` holds
  /// conv_backward_scratch(...) floats.
  static void conv_backward(const float* images, std::size_t count,
                            const ConvShape& s, ConstMat weight,
                            const float* grad_out, float* grad_images,
                            float* grad_weight, float* grad_bias,
                            float* scratch) {
    const std::size_t out_c = weight.rows, patch = weight.cols;
    const std::size_t taps = s.kernel * s.kernel;
    const BackwardScratch at =
        backward_scratch(s, out_c, grad_images != nullptr);
    const std::size_t oh = conv_out_extent(s.height, s);
    const std::size_t ow = conv_out_extent(s.width, s);
    const LaneGeometry d{s,      padded_layout(s),   oh,   ow,
                         oh * ow, s.height * s.width, out_c};
    const std::size_t image_size = s.channels * d.plane;
    const std::size_t out_size = out_c * d.n;
    float* dyl = scratch + at.dy;
    float* planes = scratch + at.planes;
    float* wt = scratch + at.wt;
    if (grad_images != nullptr) {
      for (std::size_t o = 0; o < out_c; ++o) {
        for (std::size_t c = 0; c < s.channels; ++c) {
          for (std::size_t t = 0; t < taps; ++t) {
            wt[(t * out_c + o) * s.channels + c] =
                weight.data[o * patch + c * taps + t];
          }
        }
      }
    }
    for (std::size_t b0 = 0; b0 < count; b0 += kW) {
      const std::size_t live = min_size(kW, count - b0);
      float* dy_out = dyl;
      to_lanes(grad_out + b0 * out_size, out_size, out_size, live,
               [&dy_out](V v) {
                 Isa::store(dy_out, v);
                 dy_out += kW;
               });
      if (grad_images != nullptr) {
        dx_channels<kDxChannels>(d, 0, dyl, wt, planes);
        from_lanes(planes, image_size, live, grad_images + b0 * image_size,
                   image_size);
      }
      // The margins must read +0; the interior is rewritten below.
      if (b0 == 0 || grad_images != nullptr) {
        for (std::size_t i = 0; i < d.g.image * kW; ++i) planes[i] = 0.0f;
      }
      const float* block = images + b0 * image_size;
      for (std::size_t c = 0; c < s.channels; ++c) {
        float* row = planes + (c * d.g.plane + s.pad * d.g.wp + s.pad) * kW;
        std::size_t x = 0;
        to_lanes(block + c * d.plane, image_size, d.plane, live, [&](V v) {
          Isa::store(row + x * kW, v);
          if (++x == s.width) {
            x = 0;
            row += d.g.wp * kW;
          }
        });
      }
      weight_grad(d, dyl, planes, live, b0 == 0, grad_weight, grad_bias);
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
            Cfg::squared_norms};
  }
};

}  // namespace
}  // namespace mach::tensor::kernels::detail
