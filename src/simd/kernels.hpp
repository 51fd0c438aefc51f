// Runtime-dispatched compute kernels for the per-frame hot path.
//
// Every per-frame stage of the defense — nasal-ROI luminance reduction over
// raw pixels, the FIR/Savitzky–Golay convolution chain, delay compensation /
// resampling and the Pearson trend statistics — bottoms out in one of the
// kernels below, as does the CRC-32 that seals every wire message. Each
// kernel has two implementations (scalar and AVX2) selected once at startup
// (see dispatch.hpp), and the two must agree BIT FOR BIT on every input.
//
// Determinism contract (what makes bit-equality possible):
//
//  * Kernels that map independent outputs (convolve_same, correlate_same,
//    resample_linear, delay_linear) perform, per output, exactly the same
//    IEEE operation sequence in both paths; the AVX2 path merely computes 4
//    outputs per instruction. Their results are also bit-identical to the
//    pre-SIMD per-sample loops they replaced.
//
//  * Reductions (sum, sum_sq_diff, pearson_accumulate, luminance_row_sum,
//    rgb_channel_sums) use a canonical widen-then-reduce order: the main
//    body is accumulated into W independent lanes (lane j takes elements
//    j, j+W, j+2W, ...), lanes are reduced pairwise in a fixed tree, and
//    the < W-element tail is added sequentially afterwards. The scalar
//    path emulates the W lanes with W scalar accumulators, so the order is
//    identical by construction. W is 4 for plain double reductions and 12
//    (three 4-lane registers over interleaved r,g,b) for pixel reductions.
//
//  * No FMA contraction: both kernel translation units are compiled with
//    -ffp-contract=off and the AVX2 path uses only mul/add intrinsics, so
//    a*b+c rounds twice in both paths.
//
//  * crc32_update is integer arithmetic over GF(2), so both paths are exact
//    by definition: the scalar table folds 8 bytes per step through
//    slicing-by-8 tables, the AVX2 table folds 64 bytes per step with
//    carry-less multiplies (PCLMULQDQ) and hands the < 16-byte tail to the
//    scalar loop.
//
// tests/simd/ property-tests bit-equality per kernel over randomized
// lengths (including sub-vector-width inputs and 1..7-lane tails) and
// unaligned spans; bench_perf --simd-json re-checks equality before
// recording per-kernel speedups.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lumichat::simd {

/// Weighted sum of squared differences accumulator outputs, see
/// Kernels::pearson_accumulate.
struct PearsonSums {
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
};

/// One resolved kernel table. Obtain via simd::active() (runtime dispatch),
/// or simd::scalar_kernels() / simd::avx2_kernels() to pin a path (tests,
/// benches).
struct Kernels {
  /// Σ x[i] in canonical widen-4 order.
  double (*sum)(const double* x, std::size_t n);

  /// Σ (x[i] - m)² in canonical widen-4 order.
  double (*sum_sq_diff)(const double* x, std::size_t n, double m);

  /// Accumulates Σ dx·dy, Σ dx², Σ dy² (dx = x[i]-mx, dy = y[i]-my), each
  /// in canonical widen-4 order.
  PearsonSums (*pearson_accumulate)(const double* x, const double* y,
                                    std::size_t n, double mx, double my);

  /// "Same"-size convolution with edge-replicated (clamped) indexing:
  ///   y[i] = Σ_{k=0..m-1} taps[k] * x[clamp(i + m/2 - k, 0, n-1)]
  /// accumulated in ascending k per output. x and y must not alias.
  void (*convolve_same)(const double* x, std::size_t n, const double* taps,
                        std::size_t m, double* y);

  /// "Same"-size correlation with clamped indexing (the Savitzky–Golay
  /// orientation):
  ///   y[i] = Σ_{k=0..m-1} kern[k] * x[clamp(i - m/2 + k, 0, n-1)]
  /// accumulated in ascending k per output. x and y must not alias.
  void (*correlate_same)(const double* x, std::size_t n, const double* kern,
                         std::size_t m, double* y);

  /// Linear-interpolation resampling: for each output i,
  ///   t = clamp((i / to_hz) * from_hz, 0, n-1);
  ///   out[i] = x[floor(t)]*(1-frac) + x[min(floor(t)+1, n-1)]*frac.
  /// Requires n >= 1. x and out must not alias.
  void (*resample_linear)(const double* x, std::size_t n, double from_hz,
                          double to_hz, double* out, std::size_t out_n);

  /// Fractional delay via the same clamped linear interpolation:
  ///   out[i] = sample_at(x, i - delay_samples). x and out must not alias.
  void (*delay_linear)(const double* x, std::size_t n, double delay_samples,
                       double* out);

  /// Σ over `npix` interleaved r,g,b pixel triples of
  /// (r*kR + g*kG) + b*kB, in canonical widen-12 order (channel weights
  /// are folded into the lanes; tail pixels are added sequentially with
  /// the per-pixel grouping above). `rgb` points at npix*3 doubles.
  double (*luminance_row_sum)(const double* rgb, std::size_t npix,
                              double luma_r, double luma_g, double luma_b);

  /// Per-channel sums over `npix` interleaved r,g,b triples, canonical
  /// widen-12 order, written to out_rgb[0..2].
  void (*rgb_channel_sums)(const double* rgb, std::size_t npix,
                           double* out_rgb);

  /// Folds `len` bytes into a running CRC-32 state (IEEE 802.3, reflected
  /// polynomial 0xEDB88320). The state is the raw register: start chains
  /// from 0xFFFFFFFF and XOR the final state with 0xFFFFFFFF to get the
  /// checksum (wire/crc32.hpp wraps both). Chained calls over consecutive
  /// spans equal one call over their concatenation. `data` needs no
  /// alignment.
  std::uint32_t (*crc32_update)(std::uint32_t state, const std::uint8_t* data,
                                std::size_t len);

  /// Human-readable name of this table ("scalar" / "avx2").
  const char* name;
};

namespace detail {
/// Lane widths of the canonical reduction orders (documented above; the
/// test suite uses these to build reference reducers).
inline constexpr std::size_t kReduceLanes = 4;
inline constexpr std::size_t kPixelLanes = 12;
}  // namespace detail

}  // namespace lumichat::simd
