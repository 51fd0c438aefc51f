// Shared per-output scalar helpers for the SIMD kernel translation units.
//
// Both kernels_scalar.cpp and kernels_avx2.cpp include this header for edge
// handling and sub-vector tails, so those samples go through literally the
// same expressions in both dispatch paths (and both TUs are compiled with
// -ffp-contract=off, so no path gains FMA contraction the other lacks).
// Internal to src/simd — call sites use kernels.hpp / dispatch.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace lumichat::simd::detail {

/// One clamped-convolution output: ascending-k accumulation of
/// taps[k] * x[clamp(i + m/2 - k)]. Matches the pre-SIMD FirFilter loop.
inline double convolve_one(const double* x, std::ptrdiff_t n,
                           const double* taps, std::ptrdiff_t m,
                           std::ptrdiff_t i) {
  const std::ptrdiff_t half = m / 2;
  double acc = 0.0;
  for (std::ptrdiff_t k = 0; k < m; ++k) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i + half - k, 0, n - 1);
    acc += taps[k] * x[j];
  }
  return acc;
}

/// One clamped-correlation output: ascending-k accumulation of
/// kern[k] * x[clamp(i - m/2 + k)]. Matches the pre-SIMD Savitzky–Golay loop.
inline double correlate_one(const double* x, std::ptrdiff_t n,
                            const double* kern, std::ptrdiff_t m,
                            std::ptrdiff_t i) {
  const std::ptrdiff_t half = m / 2;
  double acc = 0.0;
  for (std::ptrdiff_t k = 0; k < m; ++k) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i - half + k, 0, n - 1);
    acc += kern[k] * x[j];
  }
  return acc;
}

/// Clamped linear interpolation at fractional index t (n >= 1). Matches the
/// pre-SIMD resample.cpp sample_at: mul, mul, add — no FMA.
inline double sample_at(const double* x, std::size_t n, double t) {
  const double max_t = static_cast<double>(n - 1);
  t = std::clamp(t, 0.0, max_t);
  const auto i0 = static_cast<std::size_t>(std::floor(t));
  const std::size_t i1 = std::min(i0 + 1, n - 1);
  const double frac = t - static_cast<double>(i0);
  return x[i0] * (1.0 - frac) + x[i1] * frac;
}

/// One pixel's weighted luminance, the tail-pixel grouping of
/// luminance_row_sum: (r*kR + g*kG) + b*kB.
inline double luminance_one(const double* rgb, double luma_r, double luma_g,
                            double luma_b) {
  return (rgb[0] * luma_r + rgb[1] * luma_g) + rgb[2] * luma_b;
}

}  // namespace lumichat::simd::detail
