// Immutable, versioned LOF model snapshot — the unit of model deployment.
//
// A snapshot is the fitted state of the paper's LOF classifier (Sec. VII-A,
// Eqs. 7-8): the legitimate-population training vectors and their per-point
// k-distances and local reachability densities. It is created fully fitted
// by fit(), never mutated afterwards, and handed out as
// std::shared_ptr<const LofModelSnapshot> — every session of the service
// shares one snapshot read-only instead of carrying its own copy of the
// training set, and a registry (registry.hpp) can atomically hot-swap the
// current version under live traffic because readers keep their handle
// alive for as long as they need it.
//
// k-NN is a brute-force scan over the training set. The paper trains on
// 8-20 legitimate instances (Fig. 15), where a scan costs well under a
// microsecond, so no index is kept. Neighbours are ordered by
// (distance, index), which fixes both the tie-break and the order in which
// LOF accumulates reach-distances and densities — and so the score's bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/features.hpp"

namespace lumichat::model {

/// A (distance, training-point-index) neighbour. Ordered lexicographically,
/// so equal distances resolve to the smaller training index.
using Neighbor = std::pair<double, std::size_t>;

/// `exclude` value of nearest_neighbors() that skips no point.
inline constexpr std::size_t kNoExclusion = static_cast<std::size_t>(-1);

/// The k points nearest to `q`, skipping index `exclude`, sorted ascending
/// by (distance, index); fewer than k only when fewer points are eligible.
/// Each distance is sqrt(((dz1² + dz2²) + dz3²) + dz4²), accumulated in that
/// order, and candidates are selected on the pre-sqrt value (sqrt is
/// monotone, so the selected set and its order are the same). `out` is
/// cleared and reused.
void nearest_neighbors(const std::vector<core::FeatureVector>& points,
                       const core::FeatureVector& q, std::size_t k,
                       std::size_t exclude, std::vector<Neighbor>& out);

class LofModelSnapshot {
 public:
  /// Fits a snapshot on legitimate training vectors.
  /// \param training  legitimate feature vectors (>= k+1 of them).
  /// \param k         neighbour count (paper: 5).
  /// \param tau       decision threshold the model was calibrated for
  ///                  (paper: 3). Scorers may sweep their own tau; this is
  ///                  the published default.
  /// \param version   registry-assigned monotone id (0 = unregistered).
  /// \throws std::invalid_argument if k == 0 or fewer than k+1 vectors.
  [[nodiscard]] static std::shared_ptr<const LofModelSnapshot> fit(
      std::vector<core::FeatureVector> training, std::size_t k, double tau,
      std::uint64_t version = 0);

  /// LOF score of a query point (Eq. 8).
  [[nodiscard]] double score(const core::FeatureVector& z) const;

  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] double tau() const { return tau_; }
  [[nodiscard]] std::size_t size() const { return training_.size(); }
  [[nodiscard]] bool fitted() const { return !training_.empty(); }

  /// The shared training set (what Detector::training_data() views).
  [[nodiscard]] const std::vector<core::FeatureVector>& training() const {
    return training_;
  }

  /// k-distance of training point i (distance to its k-th nearest other
  /// training point); exposed for diagnostics and tests.
  [[nodiscard]] double k_distance(std::size_t i) const {
    return k_distance_[i];
  }
  /// Local reachability density of training point i (Eq. 7).
  [[nodiscard]] double lrd(std::size_t i) const { return lrd_[i]; }

 private:
  LofModelSnapshot() = default;

  /// Eq. 7 on an arbitrary point given its neighbour list (which carries
  /// the exact query distances, in (distance, index) order).
  [[nodiscard]] double lrd_of(const std::vector<Neighbor>& neigh) const;
  /// Eq. 8 given the query's neighbour list.
  [[nodiscard]] double score_of(const std::vector<Neighbor>& neigh) const;

  std::uint64_t version_ = 0;
  std::size_t k_ = 5;
  double tau_ = 3.0;
  std::vector<core::FeatureVector> training_;
  std::vector<double> k_distance_;  ///< per training point
  std::vector<double> lrd_;         ///< per training point
};

/// Convenience: fit an (unregistered) snapshot with a DetectorConfig's
/// k/tau.
[[nodiscard]] std::shared_ptr<const LofModelSnapshot> fit_lof_model(
    const core::DetectorConfig& config,
    std::vector<core::FeatureVector> training);

}  // namespace lumichat::model
