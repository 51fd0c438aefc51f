#include "model/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lumichat::model {
namespace {

constexpr double kMinDensityDistance = 1e-9;  // duplicate-point guard

}  // namespace

void nearest_neighbors(const std::vector<core::FeatureVector>& points,
                       const core::FeatureVector& q, std::size_t k,
                       std::size_t exclude, std::vector<Neighbor>& out) {
  out.clear();
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == exclude) continue;
    const core::FeatureVector& p = points[i];
    const double d1 = q.z1 - p.z1;
    const double d2 = q.z2 - p.z2;
    const double d3 = q.z3 - p.z3;
    const double d4 = q.z4 - p.z4;
    out.emplace_back(((d1 * d1 + d2 * d2) + d3 * d3) + d4 * d4, i);
  }
  // (d², index) is a total order because indices are unique, so the k
  // smallest pairs are one well-defined set.
  const std::size_t m = std::min(k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(m),
                    out.end());
  out.resize(m);
  for (Neighbor& nb : out) nb.first = std::sqrt(nb.first);
}

std::shared_ptr<const LofModelSnapshot> LofModelSnapshot::fit(
    std::vector<core::FeatureVector> training, std::size_t k, double tau,
    std::uint64_t version) {
  if (k == 0) {
    throw std::invalid_argument("LofModelSnapshot::fit: k must be >= 1");
  }
  if (training.size() < k + 1) {
    throw std::invalid_argument(
        "LofModelSnapshot::fit: need at least k+1 training vectors");
  }

  auto snap = std::shared_ptr<LofModelSnapshot>(new LofModelSnapshot());
  snap->version_ = version;
  snap->k_ = k;
  snap->tau_ = tau;
  snap->training_ = std::move(training);

  // Every point's k nearest *other* training points (leave-one-out), then
  // its k-distance. The LRDs need every point's k-distance first, so the
  // neighbour lists are kept for the second pass.
  const std::vector<core::FeatureVector>& pts = snap->training_;
  const std::size_t n = pts.size();
  std::vector<std::vector<Neighbor>> neigh(n);
  std::vector<Neighbor> scratch;
  snap->k_distance_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    nearest_neighbors(pts, pts[i], k, i, scratch);
    neigh[i] = scratch;  // a k-sized copy, not the n-sized scratch buffer
    snap->k_distance_[i] = neigh[i].back().first;  // n > k: never empty
  }
  snap->lrd_.resize(n);
  for (std::size_t i = 0; i < n; ++i) snap->lrd_[i] = snap->lrd_of(neigh[i]);
  return snap;
}

double LofModelSnapshot::lrd_of(const std::vector<Neighbor>& neigh) const {
  if (neigh.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [dist, j] : neigh) {
    acc += std::max(k_distance_[j], dist);  // reach-dist_k
  }
  const double mean_reach =
      std::max(acc / static_cast<double>(neigh.size()), kMinDensityDistance);
  return 1.0 / mean_reach;  // Eq. 7
}

double LofModelSnapshot::score_of(const std::vector<Neighbor>& neigh) const {
  const double lrd_z = lrd_of(neigh);
  if (lrd_z <= 0.0) return std::numeric_limits<double>::infinity();
  double acc = 0.0;
  for (const auto& [dist, j] : neigh) acc += lrd_[j];
  const double mean_neighbor_lrd = acc / static_cast<double>(neigh.size());
  return mean_neighbor_lrd / lrd_z;  // Eq. 8
}

double LofModelSnapshot::score(const core::FeatureVector& z) const {
  std::vector<Neighbor> neigh;
  nearest_neighbors(training_, z, k_, kNoExclusion, neigh);
  return score_of(neigh);
}

std::shared_ptr<const LofModelSnapshot> fit_lof_model(
    const core::DetectorConfig& config,
    std::vector<core::FeatureVector> training) {
  return LofModelSnapshot::fit(std::move(training), config.lof_neighbors,
                               config.lof_threshold);
}

}  // namespace lumichat::model
