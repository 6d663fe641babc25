// ReLU + 2x2 max pooling of a conv stage's output, and its gradient
// expansion (kernels.h; nn::ConvBlock runs them). Compiled -O3
// -ffp-contract=off with the other kernel TUs, for the baseline ISA: SSE2 on
// x86-64, scalar loops elsewhere. Every select is mask arithmetic: written
// as ?: in the nn library (-O2), the winner selects became branches on real
// activations and mispredicted, and so did a scalar ?: on P here.
#include <cstring>

#include "tensor/kernels/kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mach::tensor::kernels {

namespace {

#if defined(__SSE2__)

/// The selection rule (kernels.h) in each of four lanes, candidates in the
/// order top-left, top-right, bottom-left, bottom-right; code lanes hold
/// 0..3 as int32.
inline void select4(__m128 a, __m128 b, __m128 c, __m128 d, __m128& pooled,
                    __m128i& code) {
  // maxps(x, y) is x > y ? x : y, so maxps(x, 0) is the ReLU.
  const __m128 zero = _mm_setzero_ps();
  const __m128 r0 = _mm_max_ps(a, zero), r1 = _mm_max_ps(b, zero);
  const __m128 r2 = _mm_max_ps(c, zero), r3 = _mm_max_ps(d, zero);
  pooled = _mm_max_ps(_mm_max_ps(r0, r1), _mm_max_ps(r2, r3));
  // All-ones lanes where r_i != P: code = n0 + n0&n1 + n0&n1&n2, negated
  // because a true mask lane is -1.
  const __m128i n0 = _mm_castps_si128(_mm_cmpneq_ps(r0, pooled));
  const __m128i n01 =
      _mm_and_si128(n0, _mm_castps_si128(_mm_cmpneq_ps(r1, pooled)));
  const __m128i n012 =
      _mm_and_si128(n01, _mm_castps_si128(_mm_cmpneq_ps(r2, pooled)));
  code = _mm_sub_epi32(_mm_setzero_si128(),
                       _mm_add_epi32(_mm_add_epi32(n0, n01), n012));
}

/// Columns col..col+3 of four rows, transposed: out[k] lane l is
/// rows[l][col + k].
inline void load4x4(const float* const rows[4], std::size_t col,
                    __m128 out[4]) {
  out[0] = _mm_loadu_ps(rows[0] + col);
  out[1] = _mm_loadu_ps(rows[1] + col);
  out[2] = _mm_loadu_ps(rows[2] + col);
  out[3] = _mm_loadu_ps(rows[3] + col);
  _MM_TRANSPOSE4_PS(out[0], out[1], out[2], out[3]);
}

/// Columns col and col+1 of four rows: out[k] lane l is rows[l][col + k].
inline void load4x2(const float* const rows[4], std::size_t col,
                    __m128 out[2]) {
  const __m128 zero = _mm_setzero_ps();
  const auto pair = [&](std::size_t l) {
    return _mm_loadl_pi(zero, reinterpret_cast<const __m64*>(rows[l] + col));
  };
  const __m128 lo = _mm_unpacklo_ps(pair(0), pair(1));  // r0c r1c r0c' r1c'
  const __m128 hi = _mm_unpacklo_ps(pair(2), pair(3));  // r2c r3c r2c' r3c'
  out[0] = _mm_movelh_ps(lo, hi);
  out[1] = _mm_movehl_ps(hi, lo);
}

/// Four row pairs (lanes), whole rows of `width` floats.
void relu_maxpool_4rows(const float* x, std::size_t width, float* pooled,
                        std::uint8_t* codes) {
  const std::size_t ow = width / 2;
  const float* const top[4] = {x, x + 2 * width, x + 4 * width,
                               x + 6 * width};
  const float* const bottom[4] = {top[0] + width, top[1] + width,
                                  top[2] + width, top[3] + width};
  std::size_t col = 0;
  for (; col + 4 <= width; col += 4) {
    __m128 t[4], b[4], p0, p1;
    __m128i c0, c1;
    load4x4(top, col, t);
    load4x4(bottom, col, b);
    select4(t[0], t[1], b[0], b[1], p0, c0);
    select4(t[2], t[3], b[2], b[3], p1, c1);
    // Lane l's two windows are adjacent in its output row.
    const std::size_t ox = col / 2;
    const __m128 lo = _mm_unpacklo_ps(p0, p1), hi = _mm_unpackhi_ps(p0, p1);
    _mm_storel_pi(reinterpret_cast<__m64*>(pooled + ox), lo);
    _mm_storeh_pi(reinterpret_cast<__m64*>(pooled + ow + ox), lo);
    _mm_storel_pi(reinterpret_cast<__m64*>(pooled + 2 * ow + ox), hi);
    _mm_storeh_pi(reinterpret_cast<__m64*>(pooled + 3 * ow + ox), hi);
    // Byte 0 of each 16-bit lane 2l is window ox's code, byte 1 ox+1's.
    const __m128i both = _mm_or_si128(c0, _mm_slli_epi32(c1, 8));
    const std::uint16_t pair[4] = {
        static_cast<std::uint16_t>(_mm_extract_epi16(both, 0)),
        static_cast<std::uint16_t>(_mm_extract_epi16(both, 2)),
        static_cast<std::uint16_t>(_mm_extract_epi16(both, 4)),
        static_cast<std::uint16_t>(_mm_extract_epi16(both, 6))};
    for (std::size_t l = 0; l < 4; ++l) {
      std::memcpy(codes + l * ow + ox, &pair[l], 2);
    }
  }
  if (col < width) {  // odd ow: one last window per row pair
    __m128 t[2], b[2], p;
    __m128i c;
    load4x2(top, col, t);
    load4x2(bottom, col, b);
    select4(t[0], t[1], b[0], b[1], p, c);
    alignas(16) float pv[4];
    alignas(16) std::int32_t cv[4];
    _mm_store_ps(pv, p);
    _mm_store_si128(reinterpret_cast<__m128i*>(cv), c);
    const std::size_t ox = col / 2;
    for (std::size_t l = 0; l < 4; ++l) {
      pooled[l * ow + ox] = pv[l];
      codes[l * ow + ox] = static_cast<std::uint8_t>(cv[l]);
    }
  }
}

/// The gradient windows pass back: lane l is P > 0 ? 0.0f + g : +0 for
/// pooled value P and gradient g in lane l.
inline __m128 window_grads(__m128 pooled, __m128 grad) {
  const __m128 zero = _mm_setzero_ps();
  return _mm_and_ps(_mm_cmpgt_ps(pooled, zero), _mm_add_ps(zero, grad));
}

/// Two windows' cells, from lanes 0 and 1 of their gradients and codes:
/// `top` holds the top row's four cells and `bottom` the bottom row's, each
/// the window's gradient where its code names the cell and +0 elsewhere.
inline void expand_cells(__m128 grads, __m128i codes, __m128& top,
                         __m128& bottom) {
  const __m128 g = _mm_unpacklo_ps(grads, grads);  // g0 g0 g1 g1
  const __m128i c = _mm_shuffle_epi32(codes, _MM_SHUFFLE(1, 1, 0, 0));
  const __m128i top_cells = _mm_set_epi32(1, 0, 1, 0);
  const __m128i bottom_cells = _mm_set_epi32(3, 2, 3, 2);
  top = _mm_and_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(c, top_cells)), g);
  bottom = _mm_and_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(c, bottom_cells)), g);
}

#else

/// One window without SSE2: candidates in the order top-left, top-right,
/// bottom-left, bottom-right (kernels.h).
inline void select_window(float a, float b, float c, float d, float* pooled,
                          std::uint8_t* code) {
  const auto relu1 = [](float x) { return x > 0.0f ? x : 0.0f; };
  const float r0 = relu1(a), r1 = relu1(b), r2 = relu1(c), r3 = relu1(d);
  const float top = r0 > r1 ? r0 : r1, bottom = r2 > r3 ? r2 : r3;
  const float p = top > bottom ? top : bottom;
  const unsigned n0 = r0 != p, n1 = r1 != p, n2 = r2 != p;
  *pooled = p;
  *code = static_cast<std::uint8_t>(n0 + (n0 & n1) + (n0 & n1 & n2));
}

#endif  // __SSE2__

}  // namespace

void relu_maxpool2x2(std::size_t row_pairs, std::size_t width, const float* x,
                     float* pooled, std::uint8_t* codes) {
  const std::size_t ow = width / 2;
  std::size_t rp = 0;
#if defined(__SSE2__)
  for (; rp + 4 <= row_pairs; rp += 4) {
    relu_maxpool_4rows(x + rp * 2 * width, width, pooled + rp * ow,
                       codes + rp * ow);
  }
#endif
  for (; rp < row_pairs; ++rp) {
    const float* top = x + rp * 2 * width;
    const float* bottom = top + width;
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const std::size_t i = rp * ow + ox;
#if defined(__SSE2__)
      // Lane 0 of select4: left as scalar ?:, the ReLUs became branches.
      __m128 p;
      __m128i c;
      select4(_mm_load_ss(top + 2 * ox), _mm_load_ss(top + 2 * ox + 1),
              _mm_load_ss(bottom + 2 * ox), _mm_load_ss(bottom + 2 * ox + 1),
              p, c);
      _mm_store_ss(pooled + i, p);
      codes[i] = static_cast<std::uint8_t>(_mm_cvtsi128_si32(c));
#else
      select_window(top[2 * ox], top[2 * ox + 1], bottom[2 * ox],
                    bottom[2 * ox + 1], pooled + i, codes + i);
#endif
    }
  }
}

void relu_maxpool2x2_backward(std::size_t row_pairs, std::size_t width,
                              const float* pooled, const std::uint8_t* codes,
                              const float* grad_pooled, float* grad_x) {
  const std::size_t ow = width / 2;
#if defined(__SSE2__)
  const __m128 zero = _mm_setzero_ps();
  const __m128i zero_i = _mm_setzero_si128();
#endif
  for (std::size_t rp = 0; rp < row_pairs; ++rp) {
    float* top = grad_x + rp * 2 * width;
    float* bottom = top + width;
    const std::size_t first = rp * ow;
    std::size_t ox = 0;
#if defined(__SSE2__)
    for (; ox + 2 <= ow; ox += 2) {
      const std::size_t i = first + ox;
      const __m128 p =
          _mm_loadl_pi(zero, reinterpret_cast<const __m64*>(pooled + i));
      const __m128 g =
          _mm_loadl_pi(zero, reinterpret_cast<const __m64*>(grad_pooled + i));
      std::uint16_t pair;
      std::memcpy(&pair, codes + i, 2);
      const __m128i code = _mm_unpacklo_epi16(
          _mm_unpacklo_epi8(_mm_cvtsi32_si128(pair), zero_i), zero_i);
      __m128 t, b;
      expand_cells(window_grads(p, g), code, t, b);
      _mm_storeu_ps(top + 2 * ox, t);
      _mm_storeu_ps(bottom + 2 * ox, b);
    }
    if (ox < ow) {  // odd ow: the row pair's last window
      const std::size_t i = first + ox;
      __m128 t, b;
      expand_cells(window_grads(_mm_load_ss(pooled + i),
                                _mm_load_ss(grad_pooled + i)),
                   _mm_cvtsi32_si128(codes[i]), t, b);
      _mm_storel_pi(reinterpret_cast<__m64*>(top + 2 * ox), t);
      _mm_storel_pi(reinterpret_cast<__m64*>(bottom + 2 * ox), b);
    }
#else
    for (; ox < ow; ++ox) {
      const std::size_t i = first + ox, code = codes[i];
      const float g = pooled[i] > 0.0f ? 0.0f + grad_pooled[i] : 0.0f;
      top[2 * ox] = code == 0 ? g : 0.0f;
      top[2 * ox + 1] = code == 1 ? g : 0.0f;
      bottom[2 * ox] = code == 2 ? g : 0.0f;
      bottom[2 * ox + 1] = code == 3 ? g : 0.0f;
    }
#endif
  }
}

}  // namespace mach::tensor::kernels
