#include "spatial/brute_force.h"

#include <algorithm>
#include <cmath>

namespace lbsagg {

namespace {

// One scan candidate keyed by squared distance — the shared candidate order
// of every SpatialIndex implementation (see spatial_index.h).
struct Candidate {
  double d2;
  int index;
};

inline bool Better(const Candidate& a, const Candidate& b) {
  return a.d2 < b.d2 || (a.d2 == b.d2 && a.index < b.index);
}

}  // namespace

BruteForceIndex::BruteForceIndex(std::vector<Vec2> points)
    : points_(std::move(points)) {}

std::vector<Neighbor> BruteForceIndex::NearestFiltered(
    const Vec2& q, int k, const IndexFilter& filter, double max_d2) const {
  std::vector<Candidate> all;
  all.reserve(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    const double d2 = SquaredDistance(q, points_[i]);
    if (d2 > max_d2) continue;
    if (filter && !filter(static_cast<int>(i))) continue;
    all.push_back({d2, static_cast<int>(i)});
  }
  const size_t keep = std::min<size_t>(k < 0 ? 0 : k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(), Better);
  std::vector<Neighbor> result(keep);
  for (size_t i = 0; i < keep; ++i) {
    result[i] = {all[i].index, std::sqrt(all[i].d2), all[i].d2};
  }
  return result;
}

std::vector<Neighbor> BruteForceIndex::WithinRadius(const Vec2& q,
                                                    double radius) const {
  const double r2 = radius * radius;
  std::vector<Neighbor> result;
  for (size_t i = 0; i < points_.size(); ++i) {
    const double d2 = SquaredDistance(q, points_[i]);
    if (d2 <= r2) result.push_back({static_cast<int>(i), std::sqrt(d2), d2});
  }
  return result;
}

}  // namespace lbsagg
