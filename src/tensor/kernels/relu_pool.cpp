// The gradient expansion of a conv stage's ReLU + 2x2 max pooling
// (kernels.h; nn::ConvBlock runs it on conv_relu_pool_forward's codes).
// Compiled -O3 -ffp-contract=off with the other kernel TUs, for the
// baseline ISA: SSE2 on x86-64, scalar loops elsewhere. Every select is mask
// arithmetic: written as ?: in the nn library (-O2), the selects became
// branches on real activations and mispredicted.
#include <cstring>

#include "tensor/kernels/kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mach::tensor::kernels {

namespace {

#if defined(__SSE2__)

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

#endif  // __SSE2__

}  // namespace

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
