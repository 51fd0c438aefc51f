// LofModelSnapshot and its brute-force k-NN: fitting, immutable sharing,
// the (distance, index) neighbour contract, and bit-exact agreement with an
// independently written textbook LOF — the contract that keeps the golden
// regressions' bits fixed.
#include "model/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"

namespace lumichat::model {
namespace {

using core::FeatureVector;

std::vector<FeatureVector> cloud(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<FeatureVector> out(n);
  for (auto& f : out) {
    f.z1 = rng.uniform(0.6, 1.0);
    f.z2 = rng.uniform(0.6, 1.0);
    f.z3 = rng.uniform(0.5, 0.95);
    f.z4 = rng.uniform(0.1, 0.5);
  }
  return out;
}

FeatureVector random_query(common::Rng& rng) {
  FeatureVector z;
  z.z1 = rng.uniform(0.0, 1.4);
  z.z2 = rng.uniform(0.0, 1.4);
  z.z3 = rng.uniform(0.0, 1.4);
  z.z4 = rng.uniform(0.0, 1.4);
  return z;
}

// --- Textbook LOF, written without the snapshot's code -------------------
// Fully sorts every (d², index) candidate instead of selecting the k
// smallest, then follows Eqs. 7-8 literally.

double squared_distance(const FeatureVector& q, const FeatureVector& p) {
  const auto a = q.as_array();
  const auto b = p.as_array();
  double d2 = 0.0;
  for (std::size_t c = 0; c < 4; ++c) d2 += (a[c] - b[c]) * (a[c] - b[c]);
  return d2;
}

std::vector<Neighbor> reference_knn(const std::vector<FeatureVector>& pts,
                                    const FeatureVector& q, std::size_t k,
                                    std::size_t exclude) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i != exclude) all.emplace_back(squared_distance(q, pts[i]), i);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(k, all.size()));
  for (Neighbor& nb : all) nb.first = std::sqrt(nb.first);
  return all;
}

struct ReferenceModel {
  std::vector<double> k_distance;
  std::vector<double> lrd;
};

double reference_lrd(const std::vector<Neighbor>& neigh,
                     const std::vector<double>& k_distance) {
  double acc = 0.0;
  for (const auto& [d, j] : neigh) acc += std::max(k_distance[j], d);
  return 1.0 / std::max(acc / static_cast<double>(neigh.size()), 1e-9);
}

ReferenceModel reference_fit(const std::vector<FeatureVector>& pts,
                             std::size_t k) {
  ReferenceModel m;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    m.k_distance.push_back(reference_knn(pts, pts[i], k, i).back().first);
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    m.lrd.push_back(
        reference_lrd(reference_knn(pts, pts[i], k, i), m.k_distance));
  }
  return m;
}

double reference_score(const std::vector<FeatureVector>& pts,
                       const ReferenceModel& m, std::size_t k,
                       const FeatureVector& z) {
  const auto neigh = reference_knn(pts, z, k, kNoExclusion);
  double acc = 0.0;
  for (const auto& [d, j] : neigh) acc += m.lrd[j];
  return (acc / static_cast<double>(neigh.size())) /
         reference_lrd(neigh, m.k_distance);
}

// --- nearest_neighbors ----------------------------------------------------

TEST(NearestNeighbors, EmptySetReturnsNothing) {
  std::vector<Neighbor> out{{1.0, 7}};  // stale content is cleared
  nearest_neighbors({}, FeatureVector{}, 5, kNoExclusion, out);
  EXPECT_TRUE(out.empty());
  nearest_neighbors(cloud(4, 1), FeatureVector{}, 0, kNoExclusion, out);
  EXPECT_TRUE(out.empty());
}

TEST(NearestNeighbors, KLargerThanEligibleSetReturnsAllSorted) {
  const auto pts = cloud(6, 3);
  std::vector<Neighbor> out;
  nearest_neighbors(pts, FeatureVector{}, 100, kNoExclusion, out);
  ASSERT_EQ(out.size(), pts.size());
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1], out[i]);

  nearest_neighbors(pts, FeatureVector{}, 100, 2, out);
  ASSERT_EQ(out.size(), pts.size() - 1);  // the excluded point is not eligible
  for (const Neighbor& nb : out) EXPECT_NE(nb.second, 2u);
}

TEST(NearestNeighbors, SkipsExcludedIndex) {
  const auto pts = cloud(64, 9);
  std::vector<Neighbor> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    nearest_neighbors(pts, pts[i], 5, i, out);
    ASSERT_EQ(out, reference_knn(pts, pts[i], 5, i)) << "excluded " << i;
    for (const Neighbor& nb : out) EXPECT_NE(nb.second, i);
    EXPECT_GT(out.front().first, 0.0);  // not the query point itself
  }
}

// Duplicate points create exact distance ties at the k-th boundary; the
// (distance, index) order must settle them towards the smaller index.
TEST(NearestNeighbors, DuplicatePointsTieBreakByIndex) {
  std::vector<FeatureVector> pts(12, FeatureVector{0.5, 0.5, 0.5, 0.5});
  pts.push_back(FeatureVector{0.9, 0.5, 0.5, 0.5});
  std::vector<Neighbor> out;
  nearest_neighbors(pts, FeatureVector{0.5, 0.5, 0.5, 0.5}, 5, kNoExclusion,
                    out);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 0.0);
    EXPECT_EQ(out[i].second, i);
  }
  // Excluding one duplicate promotes the next index, not a farther point.
  nearest_neighbors(pts, pts[1], 5, 1, out);
  ASSERT_EQ(out.size(), 5u);
  const std::size_t expected[] = {0, 2, 3, 4, 5};
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].second, expected[i]);
  }
}

// --- LofModelSnapshot -----------------------------------------------------

TEST(Snapshot, FitRejectsDegenerateInputs) {
  EXPECT_THROW((void)LofModelSnapshot::fit(cloud(10, 1), 0, 3.0),
               std::invalid_argument);
  EXPECT_THROW((void)LofModelSnapshot::fit(cloud(5, 1), 5, 3.0),
               std::invalid_argument);
  EXPECT_NO_THROW((void)LofModelSnapshot::fit(cloud(6, 1), 5, 3.0));
}

TEST(Snapshot, CarriesIdentityAndParameters) {
  const auto snap = LofModelSnapshot::fit(cloud(20, 2), 5, 2.5,
                                          /*version=*/7);
  EXPECT_EQ(snap->version(), 7u);
  EXPECT_EQ(snap->k(), 5u);
  EXPECT_EQ(snap->tau(), 2.5);
  EXPECT_EQ(snap->size(), 20u);
  EXPECT_TRUE(snap->fitted());
  EXPECT_EQ(snap->training().size(), 20u);
}

// Bit-identical, not approximately equal: same neighbours, same order, same
// accumulation — including the fit-time densities.
TEST(Snapshot, ScoreMatchesTextbookReferenceBitwise) {
  for (const std::size_t n : {6u, 20u, 200u}) {
    const auto train = cloud(n, 10 + n);
    const auto snap = LofModelSnapshot::fit(train, 5, 3.0);
    const ReferenceModel ref = reference_fit(train, 5);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(snap->k_distance(i), ref.k_distance[i]) << "n=" << n;
      ASSERT_EQ(snap->lrd(i), ref.lrd[i]) << "n=" << n;
    }
    common::Rng rng(99);
    for (std::size_t q = 0; q < 200; ++q) {
      const FeatureVector z = random_query(rng);
      ASSERT_EQ(snap->score(z), reference_score(train, ref, 5, z))
          << "n=" << n << " query " << q;
    }
  }
}

// fit() is leave-one-out: a training point's k-distance is measured to its
// k-th nearest *other* point, so with k = 1 on distinct points it is the
// gap to the closest neighbour, never the zero distance to itself.
TEST(Snapshot, FitExcludesEachPointFromItsOwnNeighbours) {
  const auto train = cloud(15, 4);
  const auto snap = LofModelSnapshot::fit(train, 1, 3.0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    double nearest_other = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < train.size(); ++j) {
      if (j != i) {
        nearest_other = std::min(
            nearest_other, std::sqrt(squared_distance(train[i], train[j])));
      }
    }
    EXPECT_GT(snap->k_distance(i), 0.0) << i;
    EXPECT_EQ(snap->k_distance(i), nearest_other) << i;
  }
}

TEST(Snapshot, InlierScoresNearOneOutlierScoresHigh) {
  const auto train = cloud(40, 3);
  const auto snap = LofModelSnapshot::fit(train, 5, 3.0);
  // A training point itself is deep inside the population.
  EXPECT_LT(snap->score(train[0]), 1.5);
  core::FeatureVector far;
  far.z1 = 8.0;
  far.z2 = -5.0;
  far.z3 = 9.0;
  far.z4 = 7.0;
  EXPECT_GT(snap->score(far), 3.0);
}

// k-distance at duplicated training points is exactly zero; the
// kMinDensityDistance guard must keep densities finite and scores defined.
TEST(Snapshot, DuplicateTrainingPointsKeepScoresFinite) {
  std::vector<core::FeatureVector> train;
  for (std::size_t i = 0; i < 10; ++i) {
    train.push_back(core::FeatureVector{0.8, 0.8, 0.7, 0.3});
  }
  train.push_back(core::FeatureVector{0.82, 0.79, 0.71, 0.31});
  const auto snap = LofModelSnapshot::fit(train, 5, 3.0);
  const ReferenceModel ref = reference_fit(train, 5);

  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(snap->k_distance(i), 0.0) << i;
    EXPECT_TRUE(std::isfinite(snap->lrd(i))) << i;
  }
  const double at_dup = snap->score(train[0]);
  EXPECT_TRUE(std::isfinite(at_dup));
  EXPECT_EQ(at_dup, reference_score(train, ref, 5, train[0]));

  core::FeatureVector near_dup{0.8 + 1e-12, 0.8, 0.7, 0.3};
  EXPECT_TRUE(std::isfinite(snap->score(near_dup)));
  EXPECT_EQ(snap->score(near_dup), reference_score(train, ref, 5, near_dup));
}

TEST(Snapshot, FitLofModelUsesConfigParameters) {
  core::DetectorConfig config;
  config.lof_neighbors = 4;
  config.lof_threshold = 2.25;
  const auto snap = fit_lof_model(config, cloud(12, 6));
  EXPECT_EQ(snap->k(), 4u);
  EXPECT_EQ(snap->tau(), 2.25);
  EXPECT_EQ(snap->version(), 0u);  // unregistered until published
}

TEST(Snapshot, HandlesAreSharedNotCopied) {
  const auto snap = LofModelSnapshot::fit(cloud(25, 8), 5, 3.0);
  const auto other = snap;  // handle copy
  EXPECT_EQ(other.get(), snap.get());
  EXPECT_EQ(&other->training(), &snap->training());
}

}  // namespace
}  // namespace lumichat::model
