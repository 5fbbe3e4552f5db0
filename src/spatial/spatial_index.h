#ifndef LBSAGG_SPATIAL_SPATIAL_INDEX_H_
#define LBSAGG_SPATIAL_SPATIAL_INDEX_H_

#include <functional>
#include <limits>
#include <vector>

#include "geometry/vec2.h"

namespace lbsagg {

// One kNN search result: the index of the point in the indexed set, its
// distance to the query location, and the squared distance it was ranked
// by.
//
// Candidate ordering contract: every implementation ranks candidates by the
// total order (squared distance, index) — squared distances are exact
// products of coordinate differences, so the order is identical across
// implementations regardless of traversal — `d2` is that squared distance,
// SquaredDistance(q, p) bit for bit, and `distance` is its sqrt. In
// particular, equidistant neighbors are returned in ascending point-id
// order: ties are broken by index, deterministically, on every backend.
// The kNN result of any two implementations over the same point set is
// therefore bit-identical (spatial_equivalence_test.cc enforces this —
// including the tie order directly, via ExpectTotalOrder — and the LBS
// server relies on it to make the index backend invisible through the
// interface, and re-ranks gathered hits by `d2` without recomputing it).
struct Neighbor {
  int index = -1;
  double distance = 0.0;
  double d2 = 0.0;
};

// Accepts or rejects a candidate point index during a filtered search. Used
// by the LBS server to implement "pass-through" selection conditions (§5.1):
// e.g. Google Places restricting results to NAME = 'Starbucks'.
using IndexFilter = std::function<bool(int)>;

// Abstract kNN index over a fixed set of 2-D points. Implementations:
// KdTree (production) and BruteForceIndex (test oracle). Each implements
// one kNN entry point, NearestFiltered; Nearest is its unfiltered call.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  // Number of indexed points.
  virtual size_t size() const = 0;

  // The k nearest points to q accepted by `filter` among those with squared
  // distance <= max_d2, sorted by ascending distance: exactly the uncapped
  // result's points within the cap. A null filter accepts all. Returns
  // fewer than k when fewer points qualify.
  virtual std::vector<Neighbor> NearestFiltered(
      const Vec2& q, int k, const IndexFilter& filter,
      double max_d2 = std::numeric_limits<double>::infinity()) const = 0;

  // The k nearest points to q: NearestFiltered with a null filter.
  std::vector<Neighbor> Nearest(const Vec2& q, int k) const {
    return NearestFiltered(q, k, nullptr);
  }

  // All points within `radius` of q (inclusive), unsorted.
  virtual std::vector<Neighbor> WithinRadius(const Vec2& q,
                                             double radius) const = 0;
};

}  // namespace lbsagg

#endif  // LBSAGG_SPATIAL_SPATIAL_INDEX_H_
