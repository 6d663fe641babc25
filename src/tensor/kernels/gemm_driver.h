// Register-blocked, cache-tiled GEMM drivers shared by every ISA variant.
//
// Each gemm_<isa>.cpp translation unit defines a Cfg (vector traits plus
// blocking) and instantiates GemmKernels<Cfg> once, under its own -m flags.
//
// Structure of gemm_nn / gemm_tn (classic BLIS-style, single-threaded):
//   * the driver tiles N into NC panels, K into KC blocks and M into MC
//     blocks, packing the B panel (KC x NC, interleaved in NR-wide strips)
//     and the A block (MC x KC, interleaved in MR-wide strips) into the
//     caller's pack buffers so the micro-kernel streams contiguous memory;
//   * the micro-kernel keeps an MR x NR accumulator tile in vector registers
//     (MR rows of NV vectors) and applies kc rank-1 updates in increasing p
//     order; edge tiles run the same kernel on a zero-padded copy.
// The convolutions (conv_forward, conv_relu_pool_forward, conv_backward)
// run a whole minibatch in blocks of kW images with the images in the
// vector lanes: each image's chains of the reference composition run side
// by side, so no layer needs an im2col matrix, a column gradient or col2im,
// and every layer runs at full vector width whatever its channel count (see
// the lanes section below). The forward pools a conv stage's output while
// it is still in registers.
// gemm_nt keeps its dot-product form: each tile holds MR_nt rows of C in
// vector lanes and NR_nt columns, sums the full k into fresh accumulators
// (A packed in MR_nt-row strips, B rows broadcast in place, so B needs no
// transposed packing) and adds the result to C once. A variant may add a
// narrow nt tile (half-width vectors) for m <= its lane count, so a small
// m does not leave half of every wide vector idle.
//
// Determinism: every C element accumulates its k contributions in strictly
// increasing p order, each step one fused multiply-add (Isa::fmadd: a * b +
// acc rounded once, as the reference's std::fma), and KC blocking spills the
// exact partial sum to C between blocks. A fused multiply-add is correctly
// rounded, so the float chains are those of the reference kernels for every
// variant and every vector width. Nothing else fuses: the TUs are compiled
// with -ffp-contract=off, so every other multiply and add (biases, the
// elementwise and optimiser loops, the int8 and norm loops) rounds twice.
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
#include "tensor/kernels/vector_loops.h"

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace mach::tensor::kernels::detail {
namespace {

MACH_INLINE std::size_t min_size(std::size_t a, std::size_t b) {
  return a < b ? a : b;
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
///                  fmadd(a, b, c) (a * b + c rounded once, the chain
///                  step), load_n/store_n (the first count lanes only), an
///                  in-register kW x kW transpose, and for the pooled
///                  forward max (maxps: a > b ? a : b), pool_code (the
///                  window codes, as int32 lanes) and store_bytes (the low
///                  byte of the first count int32 lanes)
///   kMR, kNV       gemm_nn/gemm_tn register tile: kMR rows x kNV vectors
///   kKC, kMC, kNC  cache blocks (kMC % kMR == 0, kNC % (kNV * kW) == 0)
///   kNtNV, kNtNR   gemm_nt tile: kNtNV vectors of rows x kNtNR columns
///   kFwdChannels, kFwdWindows  the forward's lanes tile: kFwdChannels
///                  output channels x 2 rows x 2 * kFwdWindows pixels
///   kDwChannels, kDwTaps  conv_backward's weight-gradient lanes tile
///   squared_norms  the variant's lane-norm kernel (kernels.h)
/// (Isa also provides what VectorLoops<Isa> in vector_loops.h needs for the
/// table's elementwise, optimiser and int8 entries), and optionally
/// NarrowIsa + kNarrowNtNR, the gemm_nt tile (one NarrowIsa vector of rows)
/// used when m <= NarrowIsa::kW.
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

  // -------------------------------------------------------------------------
  // Micro-kernels
  // -------------------------------------------------------------------------

  /// MR x NR tile for gemm_nn / gemm_tn (B rows ldb apart): load C (or
  /// start from zero), apply kc rank-1 updates in increasing p order (one
  /// fused multiply-add per element and p), add the optional bias (row bias
  /// first, then column bias, as the reference does), store.
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
          acc[r][v] = Isa::fmadd(av, b[v], acc[r][v]);
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
          acc[j][v] = NI::fmadd(a[v], bv, acc[j][v]);
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

  /// Shared packed-panel driver for gemm_nn and gemm_tn (they differ only
  /// in how the A block is packed). Loop order jc -> pc -> ic keeps the
  /// k-blocks of any C element in increasing order.
  template <bool kTransposedA>
  static MACH_INLINE void nn_driver(ConstMat a, ConstMat b, Mat c,
                                    bool accumulate, const float* bias_row,
                                    const float* bias_col, PackBuffers buf) {
    const std::size_t m = c.rows, n = c.cols, k = b.rows;
    for (std::size_t jc = 0; jc < n; jc += kNC) {
      const std::size_t nc = min_size(kNC, n - jc);
      for (std::size_t pc = 0; pc < k; pc += kKC) {
        const std::size_t kc = min_size(kKC, k - pc);
        const bool zero_init = pc == 0 && !accumulate;
        const bool last = pc + kc == k;
        pack_b(b.data + pc * b.cols + jc, b.cols, kc, nc, buf.b);
        for (std::size_t ic = 0; ic < m; ic += kMC) {
          const std::size_t mc = min_size(kMC, m - ic);
          if constexpr (kTransposedA) {
            pack_a_t(a.data + pc * a.cols + ic, a.cols, mc, kc, buf.a);
          } else {
            pack_a_n<kMR>(a.data + ic * a.cols + pc, a.cols, mc, kc, buf.a);
          }
          for (std::size_t j0 = 0; j0 < nc; j0 += kNR) {
            const std::size_t nr = min_size(kNR, nc - j0);
            const float* bp = buf.b + (j0 / kNR) * kc * kNR;
            const float* bc =
                last && bias_col != nullptr ? bias_col + jc + j0 : nullptr;
            for (std::size_t i0 = 0; i0 < mc; i0 += kMR) {
              const std::size_t mr = min_size(kMR, mc - i0);
              const float* ap = buf.a + (i0 / kMR) * kc * kMR;
              float* ct = c.data + (ic + i0) * c.cols + jc + j0;
              const float* br =
                  last && bias_row != nullptr ? bias_row + ic + i0 : nullptr;
              if (mr == kMR && nr == kNR) {
                micro_nn(kc, ap, bp, kNR, ct, c.cols, zero_init, br, bc);
              } else {
                micro_nn_edge(kc, ap, bp, kNR, ct, c.cols, mr, nr, zero_init,
                              br, bc);
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
    nn_driver<false>(a, b, c, accumulate, bias_row, bias_col, buf);
  }

  static void gemm_tn(ConstMat a, ConstMat b, Mat c, bool accumulate,
                      PackBuffers buf) {
    nn_driver<true>(a, b, c, accumulate, nullptr, nullptr, buf);
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
          acc[r][v] = Isa::fmadd(av, bv[v], acc[r][v]);
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
  // Convolutions: a block of kW images in the vector lanes
  // -------------------------------------------------------------------------
  //
  // conv_forward, conv_relu_pool_forward and conv_backward run a minibatch
  // as blocks of kW images, the last one possibly partial. Inside a block
  // element e of all its images is one vector ("lanes"), lane l holding
  // image l, so every image's float chains of the reference composition run
  // side by side, a full block at full vector width whatever the channel
  // count or plane size. Lanes past the block's `live` images hold +0 and
  // are never stored or reduced, but they are computed: a partial block
  // costs a whole one.

  /// A block's input images in (height + 2 pad) x (width + 2 pad) lane
  /// planes whose margins hold +0.0f, the value im2col writes for a tap
  /// outside the image: tap (c, ky, kx) of output pixel (oy, ox) is then
  /// element (oy * stride + ky) * wp + ox * stride + kx of padded plane c,
  /// with no bounds test.
  struct PaddedLayout {
    std::size_t wp;     // padded row length
    std::size_t plane;  // elements per padded plane
    std::size_t image;  // elements per padded image
  };

  static MACH_INLINE PaddedLayout padded_layout(const ConvShape& s) {
    const std::size_t wp = s.width + 2 * s.pad;
    return {wp, (s.height + 2 * s.pad) * wp, padded_image_floats(s)};
  }

  /// Offset of tap p = (c, ky, kx) in a padded image.
  static MACH_INLINE std::size_t tap_offset(std::size_t p, const ConvShape& s,
                                            const PaddedLayout& g) {
    const std::size_t taps = s.kernel * s.kernel;
    return p / taps * g.plane + (p % taps) / s.kernel * g.wp + p % s.kernel;
  }

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

  /// The first `cols` lanes of v at p: floats, or the window codes' bytes.
  static MACH_INLINE void put_lanes(float* p, V v, std::size_t cols) {
    if (cols == kW) {
      Isa::store(p, v);
    } else {
      Isa::store_n(p, v, cols);
    }
  }
  static MACH_INLINE void put_lanes(std::uint8_t* p, V v, std::size_t cols) {
    Isa::store_bytes(p, v, cols);
  }

  /// The inverse for `len` consecutive lane vectors: dst[l * stride + t] =
  /// lane l of lanes[t], written for l < live only (as a byte for code
  /// lanes).
  template <class T>
  static MACH_INLINE void from_lanes(const float* lanes, std::size_t len,
                                     std::size_t live, T* dst,
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
        put_lanes(dst + l * stride + t0, r[l], cols);
      }
    }
  }

  /// A block's `live` images (NCHW, from `block`) into the interior of the
  /// padded lane planes; the margins are left as they are.
  static MACH_INLINE void load_planes(const float* block, const ConvShape& s,
                                      const PaddedLayout& g, std::size_t live,
                                      float* planes) {
    const std::size_t plane = s.height * s.width;
    for (std::size_t c = 0; c < s.channels; ++c) {
      float* row = planes + (c * g.plane + s.pad * g.wp + s.pad) * kW;
      std::size_t x = 0;
      to_lanes(block + c * plane, s.channels * plane, plane, live, [&](V v) {
        Isa::store(row + x * kW, v);
        if (++x == s.width) {
          x = 0;
          row += g.wp * kW;
        }
      });
    }
  }

  // Forward. A tile holds kFwdChannels output channels x RY output rows x
  // RX pixels of a block in registers; with RY = 2 and RX even every 2x2
  // pooling window is whole in it, so the pooled forward applies the ReLU
  // and picks each window's winner there and only the pooled values and
  // codes leave the tile.

  static constexpr std::size_t kFwdChannels = Cfg::kFwdChannels;
  static constexpr std::size_t kFwdPixels = 2 * Cfg::kFwdWindows;

  /// One block's forward geometry: output rows and columns, the lane floats
  /// between the inputs of neighbouring output rows and pixels, and the
  /// per-channel lane vectors of the tile's destination (output pixels, or
  /// windows when pooling).
  struct ForwardGeometry {
    const ConvShape& s;
    PaddedLayout g;
    std::size_t oh, ow, out_c, patch, row_step, step, per_channel;
  };

  /// RO channels x RY rows x RX pixels: lane l of acc[r][t][i] becomes
  /// image l's +0 + W[r][p] * X[tap p of pixel (t, i)] over the taps p =
  /// (c, ky, kx) in increasing order, + bias[r] — micro_nn's chain, the
  /// weight the first operand and broadcast, the input loaded from the lane
  /// planes at `x` (tap (0, 0, 0) of the tile's first pixel). `w` is the
  /// first channel's weight row; bias may be nullptr.
  template <std::size_t RO, std::size_t RY, std::size_t RX>
  static MACH_INLINE void forward_sums(const ForwardGeometry& d,
                                       const float* x, const float* w,
                                       const float* bias,
                                       V (&acc)[RO][RY][RX]) {
#pragma GCC unroll 16
    for (std::size_t r = 0; r < RO; ++r) {
#pragma GCC unroll 16
      for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
        for (std::size_t i = 0; i < RX; ++i) acc[r][t][i] = Isa::zero();
      }
    }
    const ConvShape& s = d.s;
    for (std::size_t c = 0; c < s.channels; ++c, x += d.g.plane * kW) {
      const float* row = x;
      for (std::size_t ky = 0; ky < s.kernel; ++ky, row += d.g.wp * kW) {
        for (std::size_t kx = 0; kx < s.kernel; ++kx, ++w) {
          V xv[RY][RX];
#pragma GCC unroll 16
          for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
            for (std::size_t i = 0; i < RX; ++i) {
              xv[t][i] = Isa::load(row + t * d.row_step + i * d.step + kx * kW);
            }
          }
#pragma GCC unroll 16
          for (std::size_t r = 0; r < RO; ++r) {
            const V wv = Isa::bcast(w[r * d.patch]);
#pragma GCC unroll 16
            for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
              for (std::size_t i = 0; i < RX; ++i) {
                acc[r][t][i] = Isa::fmadd(wv, xv[t][i], acc[r][t][i]);
              }
            }
          }
        }
      }
    }
    if (bias == nullptr) return;
#pragma GCC unroll 16
    for (std::size_t r = 0; r < RO; ++r) {
      const V b = Isa::bcast(bias[r]);
#pragma GCC unroll 16
      for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
        for (std::size_t i = 0; i < RX; ++i) {
          acc[r][t][i] = Isa::add(acc[r][t][i], b);
        }
      }
    }
  }

  /// The tile at output row oy, column ox of RO channels whose destination
  /// lanes start at `out` ([channel][row][column] of output pixels), or,
  /// with kPool, at `out` and `codes` ([channel][row][column] of windows).
  /// Pooling: each candidate becomes r = max(x, +0) (x > 0 ? x : +0), the
  /// window's value is the largest r and its code the first position
  /// (top-left, top-right, bottom-left, bottom-right) whose r equals it.
  template <bool kPool, std::size_t RO, std::size_t RY, std::size_t RX>
  static MACH_INLINE void forward_tile(const ForwardGeometry& d,
                                       std::size_t oy, std::size_t ox,
                                       const float* planes, const float* w,
                                       const float* bias, float* out,
                                       float* codes) {
    V acc[RO][RY][RX];
    forward_sums(d, planes + oy * d.row_step + ox * d.step, w, bias, acc);
    if constexpr (kPool) {
      static_assert(RY == 2 && RX % 2 == 0, "pooling tiles hold whole windows");
      const V zero = Isa::zero();
      const std::size_t first = (oy / 2) * (d.ow / 2) + ox / 2;
#pragma GCC unroll 16
      for (std::size_t r = 0; r < RO; ++r) {
#pragma GCC unroll 16
        for (std::size_t j = 0; j < RX / 2; ++j) {
          const V r0 = Isa::max(acc[r][0][2 * j], zero);
          const V r1 = Isa::max(acc[r][0][2 * j + 1], zero);
          const V r2 = Isa::max(acc[r][1][2 * j], zero);
          const V r3 = Isa::max(acc[r][1][2 * j + 1], zero);
          const V p = Isa::max(Isa::max(r0, r1), Isa::max(r2, r3));
          const std::size_t at = (r * d.per_channel + first + j) * kW;
          Isa::store(out + at, p);
          Isa::store(codes + at, Isa::pool_code(r0, r1, r2, p));
        }
      }
    } else {
#pragma GCC unroll 16
      for (std::size_t r = 0; r < RO; ++r) {
#pragma GCC unroll 16
        for (std::size_t t = 0; t < RY; ++t) {
#pragma GCC unroll 16
          for (std::size_t i = 0; i < RX; ++i) {
            const std::size_t at = r * d.per_channel + (oy + t) * d.ow + ox + i;
            Isa::store(out + at * kW, acc[r][t][i]);
          }
        }
      }
    }
  }

  /// A tile of `pixels` (1..RX, even when pooling) pixels per row.
  template <bool kPool, std::size_t RO, std::size_t RY, std::size_t RX>
  static MACH_INLINE void forward_fringe(std::size_t pixels,
                                         const ForwardGeometry& d,
                                         std::size_t oy, std::size_t ox,
                                         const float* planes, const float* w,
                                         const float* bias, float* out,
                                         float* codes) {
    constexpr std::size_t kStep = kPool ? 2 : 1;
    if constexpr (RX > kStep) {
      if (pixels < RX) {
        forward_fringe<kPool, RO, RY, RX - kStep>(pixels, d, oy, ox, planes, w,
                                                  bias, out, codes);
        return;
      }
    }
    forward_tile<kPool, RO, RY, RX>(d, oy, ox, planes, w, bias, out, codes);
  }

  /// RY output rows from oy, every column, for RO channels.
  template <bool kPool, std::size_t RO, std::size_t RY>
  static MACH_INLINE void forward_rows(const ForwardGeometry& d,
                                       std::size_t oy, const float* planes,
                                       const float* w, const float* bias,
                                       float* out, float* codes) {
    for (std::size_t ox = 0; ox < d.ow; ox += kFwdPixels) {
      forward_fringe<kPool, RO, RY, kFwdPixels>(min_size(kFwdPixels, d.ow - ox),
                                                d, oy, ox, planes, w, bias,
                                                out, codes);
    }
  }

  /// Output channels [o0, out_c) of one block, RO at a time and fewer at
  /// the end, in row pairs (and a last single row when oh is odd, which
  /// pooling never has).
  template <bool kPool, std::size_t RO>
  static void forward_channels(const ForwardGeometry& d, std::size_t o0,
                               const float* planes, const float* weight,
                               const float* bias, float* out, float* codes) {
    for (; o0 + RO <= d.out_c; o0 += RO) {
      const float* w = weight + o0 * d.patch;
      const float* b = bias != nullptr ? bias + o0 : nullptr;
      float* o = out + o0 * d.per_channel * kW;
      float* cd = kPool ? codes + o0 * d.per_channel * kW : nullptr;
      std::size_t oy = 0;
      for (; oy + 2 <= d.oh; oy += 2) {
        forward_rows<kPool, RO, 2>(d, oy, planes, w, b, o, cd);
      }
      if constexpr (!kPool) {
        if (oy < d.oh) forward_rows<kPool, RO, 1>(d, oy, planes, w, b, o, cd);
      }
    }
    if constexpr (RO > 1) {
      if (o0 < d.out_c) {
        forward_channels<kPool, RO - 1>(d, o0, planes, weight, bias, out,
                                        codes);
      }
    }
  }

  static ForwardGeometry forward_geometry(const ConvShape& s, ConstMat weight,
                                          bool pool) {
    const std::size_t oh = conv_out_extent(s.height, s);
    const std::size_t ow = conv_out_extent(s.width, s);
    const PaddedLayout g = padded_layout(s);
    return {s,
            g,
            oh,
            ow,
            weight.rows,
            weight.cols,
            s.stride * g.wp * kW,
            s.stride * kW,
            pool ? oh / 2 * (ow / 2) : oh * ow};
  }

  /// Runs `each(b0, live)` for every block once its images are in the
  /// padded lane planes (whose margins are zeroed once per call).
  template <class Each>
  static MACH_INLINE void forward_blocks(const float* images, std::size_t count,
                                         const ForwardGeometry& d,
                                         float* planes, Each&& each) {
    for (std::size_t i = 0; i < d.g.image * kW; ++i) planes[i] = 0.0f;
    const std::size_t image_size = d.s.channels * d.s.height * d.s.width;
    for (std::size_t b0 = 0; b0 < count; b0 += kW) {
      const std::size_t live = min_size(kW, count - b0);
      load_planes(images + b0 * image_size, d.s, d.g, live, planes);
      each(b0, live);
    }
  }

  /// conv_forward over `count` images (kernels.h). `scratch` holds the
  /// padded lane planes, then the block's conv-output lanes [o][oy][ox],
  /// which go to the NCHW output through from_lanes.
  static void conv_forward(const float* images, std::size_t count,
                           const ConvShape& s, ConstMat weight,
                           const float* bias, float* out, float* scratch) {
    const ForwardGeometry d = forward_geometry(s, weight, false);
    const std::size_t out_size = d.out_c * d.per_channel;
    float* lanes = scratch + d.g.image * kW;
    forward_blocks(images, count, d, scratch, [&](std::size_t b0,
                                                  std::size_t live) {
      forward_channels<false, kFwdChannels>(d, 0, scratch, weight.data, bias,
                                            lanes, nullptr);
      from_lanes(lanes, out_size, live, out + b0 * out_size, out_size);
    });
  }

  /// conv_relu_pool_forward over `count` images (kernels.h). `scratch`
  /// holds the padded lane planes, then the block's pooled lanes and code
  /// lanes (int32 codes), both [o][py][px]; from_lanes writes them as NCHW
  /// floats and bytes. The conv output is never stored.
  static void conv_relu_pool_forward(const float* images, std::size_t count,
                                     const ConvShape& s, ConstMat weight,
                                     const float* bias, float* pooled,
                                     std::uint8_t* codes, float* scratch) {
    const ForwardGeometry d = forward_geometry(s, weight, true);
    const std::size_t windows = d.out_c * d.per_channel;
    float* pooled_lanes = scratch + d.g.image * kW;
    float* code_lanes = pooled_lanes + windows * kW;
    forward_blocks(images, count, d, scratch, [&](std::size_t b0,
                                                  std::size_t live) {
      forward_channels<true, kFwdChannels>(d, 0, scratch, weight.data, bias,
                                           pooled_lanes, code_lanes);
      from_lanes(pooled_lanes, windows, live, pooled + b0 * windows, windows);
      from_lanes(code_lanes, windows, live, codes + b0 * windows, windows);
    });
  }

  // Backward.

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

  /// One block's backward geometry. The lane buffers hold kW floats per
  /// element: dY as [o][q], the input images in zero-padded planes
  /// [c][y][x] (layout g), dX as unpadded [c][y][x].
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
            acc[r][t] = Isa::fmadd(g[r], xv, acc[r][t]);
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
            chain[c] = Isa::fmadd(Isa::bcast(w[c]), gv, chain[c]);
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
      load_planes(images + b0 * image_size, s, d.g, live, planes);
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

  using Loops = VectorLoops<Isa>;

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
            &conv_relu_pool_forward,
            &conv_backward_scratch,
            &conv_backward,
            Cfg::squared_norms,
            &Loops::relu,
            &Loops::relu_bwd,
            &Loops::axpy,
            &Loops::axpy_delta,
            &Loops::scale,
            &Loops::scale_copy,
            &Loops::vadd,
            &Loops::add_bias_rows,
            &Loops::col_sums,
            &Loops::sgd_step,
            &Loops::sgd_momentum_step,
            &Loops::int8_max_abs,
            &Loops::int8_quantise,
            &Loops::int8_dequantise};
  }
};

}  // namespace
}  // namespace mach::tensor::kernels::detail
