#include "presimd_ref.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "image/luminance.hpp"

namespace lumichat::bench {

double presimd_roi_luminance(const image::Image& frame,
                             const image::RectF& roi) {
  const double x0 = std::max(roi.x, 0.0);
  const double y0 = std::max(roi.y, 0.0);
  const double x1 = std::min(roi.x + roi.width,
                             static_cast<double>(frame.width()));
  const double y1 = std::min(roi.y + roi.height,
                             static_cast<double>(frame.height()));
  if (x0 >= x1 || y0 >= y1) return 0.0;

  const auto ix0 = static_cast<std::size_t>(x0);
  const auto iy0 = static_cast<std::size_t>(y0);
  const auto ix1 = static_cast<std::size_t>(std::ceil(x1));
  const auto iy1 = static_cast<std::size_t>(std::ceil(y1));

  double acc = 0.0;
  double area = 0.0;
  for (std::size_t y = iy0; y < iy1 && y < frame.height(); ++y) {
    const double cy = std::min(y1, static_cast<double>(y + 1)) -
                      std::max(y0, static_cast<double>(y));
    for (std::size_t x = ix0; x < ix1 && x < frame.width(); ++x) {
      const double cx = std::min(x1, static_cast<double>(x + 1)) -
                        std::max(x0, static_cast<double>(x));
      const double w = cx * cy;
      acc += w * image::luminance(frame(x, y));
      area += w;
    }
  }
  return area > 0.0 ? acc / area : 0.0;
}

double presimd_sum(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

void presimd_pearson(const double* x, const double* y, std::size_t n,
                     double mx, double my, double out[3]) {
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  out[0] = sxy;
  out[1] = sxx;
  out[2] = syy;
}

double presimd_luminance_row(const double* rgb, std::size_t npix, double lr,
                             double lg, double lb) {
  double acc = 0.0;
  for (std::size_t i = 0; i < npix; ++i) {
    acc += lr * rgb[3 * i] + lg * rgb[3 * i + 1] + lb * rgb[3 * i + 2];
  }
  return acc;
}

namespace {

consteval std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

std::uint32_t presimd_crc32_update(std::uint32_t state,
                                   const std::uint8_t* data, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    state = kCrc32Table[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace lumichat::bench
