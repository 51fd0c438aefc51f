#pragma once

// Faithful reproductions of the pre-SIMD hot-path loops, kept so
// bench_perf's --simd-json mode can record the genuine before/after of the
// dispatch layer. These are the loops the kernels in src/simd replaced:
//
// reductions (sum / pearson / ROI luminance) accumulated into single serial
// chains — latency-bound, with no instruction-level parallelism.
//
// The TU is compiled with -fno-tree-vectorize (see bench/CMakeLists.txt):
// the original code was not auto-vectorizable (serial FP reductions cannot
// be reordered), so letting the compiler vectorize these reproductions
// would overstate the baseline.

#include <cstddef>

#include "image/image.hpp"

namespace lumichat::bench {

/// The original roi_luminance(RectF) verbatim: per-pixel coverage weights
/// (min/max/multiply for every pixel) feeding single serial accumulators.
/// The replacement hoists coverage out of the interior run and reduces it
/// with the dispatched row kernel.
double presimd_roi_luminance(const image::Image& frame,
                             const image::RectF& roi);

double presimd_sum(const double* x, std::size_t n);

/// Accumulates sxy/sxx/syy around the precomputed means, one sample at a
/// time, into `out[3]` — the original pearson() inner loop.
void presimd_pearson(const double* x, const double* y, std::size_t n,
                     double mx, double my, double out[3]);

/// Single-accumulator `acc += lr*r + lg*g + lb*b` over packed RGB pixels —
/// the original roi_luminance inner loop body.
double presimd_luminance_row(const double* rgb, std::size_t npix, double lr,
                             double lg, double lb);

}  // namespace lumichat::bench
