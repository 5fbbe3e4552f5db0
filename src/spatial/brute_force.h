#ifndef LBSAGG_SPATIAL_BRUTE_FORCE_H_
#define LBSAGG_SPATIAL_BRUTE_FORCE_H_

#include <limits>
#include <vector>

#include "spatial/spatial_index.h"

namespace lbsagg {

// O(n) linear-scan kNN. Reference oracle for KdTree tests and fine for tiny
// datasets.
class BruteForceIndex : public SpatialIndex {
 public:
  explicit BruteForceIndex(std::vector<Vec2> points);

  size_t size() const override { return points_.size(); }
  std::vector<Neighbor> NearestFiltered(
      const Vec2& q, int k, const IndexFilter& filter,
      double max_d2 = std::numeric_limits<double>::infinity()) const override;
  std::vector<Neighbor> WithinRadius(const Vec2& q,
                                     double radius) const override;

 private:
  std::vector<Vec2> points_;
};

}  // namespace lbsagg

#endif  // LBSAGG_SPATIAL_BRUTE_FORCE_H_
