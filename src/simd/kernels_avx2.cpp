// AVX2 implementations of the SIMD kernel table.
//
// Per-output kernels compute 4 outputs per instruction with each output's
// IEEE operation sequence unchanged from the scalar path; reductions use the
// canonical widen-then-reduce lane order of kernels.hpp (vector lanes ARE
// the scalar path's accumulators). Only mul/add intrinsics are used — no
// FMA — and the TU is compiled with -ffp-contract=off, so results are bit
// for bit identical to kernels_scalar.cpp (property-gated in tests/simd/).
//
// crc32_update folds 64-byte blocks with carry-less multiplies, so this TU
// is also compiled with -mpclmul. It is only entered when dispatch.cpp
// selected the AVX2 table, which requires runtime CPUID support for both.
#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/kernels_detail.hpp"

#if defined(LUMICHAT_SIMD_HAS_AVX2)
#include <immintrin.h>

namespace lumichat::simd {
namespace {

/// Reduces [l0 l1 l2 l3] to (l0 + l1) + (l2 + l3) — the canonical lane
/// reduction, done in scalar doubles so the order is explicit.
double reduce_lanes(__m256d v) {
  alignas(32) double l[4];
  _mm256_store_pd(l, v);
  return (l[0] + l[1]) + (l[2] + l[3]);
}

double sum_avx2(const double* x, std::size_t n) {
  const std::size_t n4 = n - n % 4;
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = reduce_lanes(acc);
  for (std::size_t i = n4; i < n; ++i) total += x[i];
  return total;
}

double sum_sq_diff_avx2(const double* x, std::size_t n, double m) {
  const std::size_t n4 = n - n % 4;
  const __m256d vm = _mm256_set1_pd(m);
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(x + i), vm);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double total = reduce_lanes(acc);
  for (std::size_t i = n4; i < n; ++i) {
    const double d = x[i] - m;
    total += d * d;
  }
  return total;
}

PearsonSums pearson_accumulate_avx2(const double* x, const double* y,
                                    std::size_t n, double mx, double my) {
  const std::size_t n4 = n - n % 4;
  const __m256d vmx = _mm256_set1_pd(mx);
  const __m256d vmy = _mm256_set1_pd(my);
  __m256d axy = _mm256_setzero_pd();
  __m256d axx = _mm256_setzero_pd();
  __m256d ayy = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(x + i), vmx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(y + i), vmy);
    axy = _mm256_add_pd(axy, _mm256_mul_pd(dx, dy));
    axx = _mm256_add_pd(axx, _mm256_mul_pd(dx, dx));
    ayy = _mm256_add_pd(ayy, _mm256_mul_pd(dy, dy));
  }
  PearsonSums s;
  s.sxy = reduce_lanes(axy);
  s.sxx = reduce_lanes(axx);
  s.syy = reduce_lanes(ayy);
  for (std::size_t i = n4; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    s.sxy += dx * dy;
    s.sxx += dx * dx;
    s.syy += dy * dy;
  }
  return s;
}

void convolve_same_avx2(const double* x, std::size_t n, const double* taps,
                        std::size_t m, double* y) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sm = static_cast<std::ptrdiff_t>(m);
  const std::ptrdiff_t half = sm / 2;
  // Outputs whose every read i + half - k stays inside [0, n-1]: no clamp
  // needed, reads for 4 consecutive outputs are 4 consecutive samples.
  const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, sm - 1 - half);
  const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(sn - 1, sn - 1 - half);
  std::ptrdiff_t i = 0;
  for (; i < std::min(lo, sn); ++i) {
    y[i] = detail::convolve_one(x, sn, taps, sm, i);
  }
  for (; i + 3 <= hi; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::ptrdiff_t k = 0; k < sm; ++k) {
      const __m256d t = _mm256_set1_pd(taps[k]);
      const __m256d xv = _mm256_loadu_pd(x + (i + half - k));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(t, xv));
    }
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < sn; ++i) {
    y[i] = detail::convolve_one(x, sn, taps, sm, i);
  }
}

void correlate_same_avx2(const double* x, std::size_t n, const double* kern,
                         std::size_t m, double* y) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sm = static_cast<std::ptrdiff_t>(m);
  const std::ptrdiff_t half = sm / 2;
  // Clamp-free outputs: i - half >= 0 and i - half + m - 1 <= n - 1.
  const std::ptrdiff_t lo = half;
  const std::ptrdiff_t hi = sn - sm + half;
  std::ptrdiff_t i = 0;
  for (; i < std::min(lo, sn); ++i) {
    y[i] = detail::correlate_one(x, sn, kern, sm, i);
  }
  for (; i + 3 <= hi; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::ptrdiff_t k = 0; k < sm; ++k) {
      const __m256d t = _mm256_set1_pd(kern[k]);
      const __m256d xv = _mm256_loadu_pd(x + (i - half + k));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(t, xv));
    }
    _mm256_storeu_pd(y + i, acc);
  }
  for (; i < sn; ++i) {
    y[i] = detail::correlate_one(x, sn, kern, sm, i);
  }
}

/// Shared body of resample/delay: interpolate x at positions held in `pos`
/// (already clamped to [0, n-1]) — per lane the exact op sequence of
/// detail::sample_at after its clamp.
__m256d gather_lerp(const double* x, std::ptrdiff_t n, __m256d pos) {
  const __m256d tf = _mm256_floor_pd(pos);
  const __m128i i0 = _mm256_cvttpd_epi32(tf);
  const __m128i vn1 = _mm_set1_epi32(static_cast<int>(n - 1));
  const __m128i i1 = _mm_min_epi32(_mm_add_epi32(i0, _mm_set1_epi32(1)), vn1);
  // Masked gather with an explicit zero source: same instruction as the
  // plain form with an all-ones mask, but avoids GCC's
  // -Wmaybe-uninitialized on _mm256_undefined_pd().
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d x0 =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, i0, all, 8);
  const __m256d x1 =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, i1, all, 8);
  const __m256d frac = _mm256_sub_pd(pos, tf);
  const __m256d one = _mm256_set1_pd(1.0);
  return _mm256_add_pd(_mm256_mul_pd(x0, _mm256_sub_pd(one, frac)),
                       _mm256_mul_pd(x1, frac));
}

void resample_linear_avx2(const double* x, std::size_t n, double from_hz,
                          double to_hz, double* out, std::size_t out_n) {
  const std::size_t o4 = out_n - out_n % 4;
  const __m256d vto = _mm256_set1_pd(to_hz);
  const __m256d vfrom = _mm256_set1_pd(from_hz);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vmax = _mm256_set1_pd(static_cast<double>(n - 1));
  const __m256d ramp = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  for (std::size_t i = 0; i < o4; i += 4) {
    const __m256d vi =
        _mm256_add_pd(_mm256_set1_pd(static_cast<double>(i)), ramp);
    __m256d pos = _mm256_mul_pd(_mm256_div_pd(vi, vto), vfrom);
    pos = _mm256_min_pd(_mm256_max_pd(pos, vzero), vmax);
    _mm256_storeu_pd(out + i,
                     gather_lerp(x, static_cast<std::ptrdiff_t>(n), pos));
  }
  for (std::size_t i = o4; i < out_n; ++i) {
    const double t_sec = static_cast<double>(i) / to_hz;
    out[i] = detail::sample_at(x, n, t_sec * from_hz);
  }
}

void delay_linear_avx2(const double* x, std::size_t n, double delay_samples,
                       double* out) {
  const std::size_t n4 = n - n % 4;
  const __m256d vdelay = _mm256_set1_pd(delay_samples);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vmax = _mm256_set1_pd(static_cast<double>(n - 1));
  const __m256d ramp = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d vi =
        _mm256_add_pd(_mm256_set1_pd(static_cast<double>(i)), ramp);
    __m256d pos = _mm256_sub_pd(vi, vdelay);
    pos = _mm256_min_pd(_mm256_max_pd(pos, vzero), vmax);
    _mm256_storeu_pd(out + i,
                     gather_lerp(x, static_cast<std::ptrdiff_t>(n), pos));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = detail::sample_at(x, n, static_cast<double>(i) - delay_samples);
  }
}

double luminance_row_sum_avx2(const double* rgb, std::size_t npix,
                              double luma_r, double luma_g, double luma_b) {
  // 4 pixels = 12 interleaved doubles = 3 registers; the channel weight
  // pattern repeats every 12 lanes, so no deinterleave shuffles are needed.
  const __m256d w0 = _mm256_setr_pd(luma_r, luma_g, luma_b, luma_r);
  const __m256d w1 = _mm256_setr_pd(luma_g, luma_b, luma_r, luma_g);
  const __m256d w2 = _mm256_setr_pd(luma_b, luma_r, luma_g, luma_b);
  const std::size_t groups = npix / 4;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  const double* p = rgb;
  for (std::size_t g = 0; g < groups; ++g) {
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_loadu_pd(p), w0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(p + 4), w1));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_loadu_pd(p + 8), w2));
    p += 12;
  }
  alignas(32) double a[12];
  _mm256_store_pd(a, acc0);
  _mm256_store_pd(a + 4, acc1);
  _mm256_store_pd(a + 8, acc2);
  double s[4];
  for (std::size_t j = 0; j < 4; ++j) s[j] = (a[j] + a[j + 4]) + a[j + 8];
  double total = (s[0] + s[1]) + (s[2] + s[3]);
  for (std::size_t i = groups * 4; i < npix; ++i) {
    total += detail::luminance_one(rgb + i * 3, luma_r, luma_g, luma_b);
  }
  return total;
}

void rgb_channel_sums_avx2(const double* rgb, std::size_t npix,
                           double* out_rgb) {
  const std::size_t groups = npix / 4;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  const double* p = rgb;
  for (std::size_t g = 0; g < groups; ++g) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(p));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(p + 4));
    acc2 = _mm256_add_pd(acc2, _mm256_loadu_pd(p + 8));
    p += 12;
  }
  alignas(32) double a[12];
  _mm256_store_pd(a, acc0);
  _mm256_store_pd(a + 4, acc1);
  _mm256_store_pd(a + 8, acc2);
  double r = (a[0] + a[3]) + (a[6] + a[9]);
  double g = (a[1] + a[4]) + (a[7] + a[10]);
  double b = (a[2] + a[5]) + (a[8] + a[11]);
  for (std::size_t i = groups * 4; i < npix; ++i) {
    r += rgb[i * 3];
    g += rgb[i * 3 + 1];
    b += rgb[i * 3 + 2];
  }
  out_rgb[0] = r;
  out_rgb[1] = g;
  out_rgb[2] = b;
}

/// PCLMULQDQ CRC-32 over `len` bytes, len >= 64 and a multiple of 16: four
/// 128-bit lanes fold 64 bytes per step, fold into one lane, take the
/// remaining 16-byte blocks one by one, then reduce 128 -> 64 -> 32 bits
/// with a final Barrett reduction. The constants are x^n mod P(x) for the
/// reflected IEEE polynomial (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009); the
/// layout follows Chromium zlib's crc32_sse42_simd_. `state` is the raw
/// CRC register, in and out.
std::uint32_t crc32_fold_pclmul(std::uint32_t state, const std::uint8_t* buf,
                                std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // a.lo*k.lo ^ a.hi*k.hi ^ b: advances lane `a` past 128 (k1k2: 512)
  // more bits and folds `b` in.
  const auto fold = [](__m128i a, __m128i k, __m128i b) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         b);
  };

  __m128i x1 = _mm_xor_si128(load(buf),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(buf + 16);
  __m128i x3 = load(buf + 32);
  __m128i x4 = load(buf + 48);
  buf += 64;
  len -= 64;
  for (; len >= 64; buf += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(buf));
    x2 = fold(x2, k1k2, load(buf + 16));
    x3 = fold(x3, k1k2, load(buf + 32));
    x4 = fold(x4, k1k2, load(buf + 48));
  }

  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; buf += 16, len -= 16) x1 = fold(x1, k3k4, load(buf));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5k0, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

std::uint32_t crc32_update_avx2(std::uint32_t state, const std::uint8_t* data,
                                std::size_t len) {
  if (len >= 64) {
    const std::size_t body = len & ~std::size_t{15};
    state = crc32_fold_pclmul(state, data, body);
    data += body;
    len -= body;
  }
  return detail::crc32_update_scalar(state, data, len);
}

}  // namespace

const Kernels* avx2_kernels() {
  if (!cpu_supports_avx2()) return nullptr;
  static constexpr Kernels table = {
      sum_avx2,
      sum_sq_diff_avx2,
      pearson_accumulate_avx2,
      convolve_same_avx2,
      correlate_same_avx2,
      resample_linear_avx2,
      delay_linear_avx2,
      luminance_row_sum_avx2,
      rgb_channel_sums_avx2,
      crc32_update_avx2,
      "avx2",
  };
  return &table;
}

}  // namespace lumichat::simd

#else  // !LUMICHAT_SIMD_HAS_AVX2: toolchain or target cannot emit AVX2.

namespace lumichat::simd {

const Kernels* avx2_kernels() { return nullptr; }

}  // namespace lumichat::simd

#endif
