#ifndef LBSAGG_CORE_GROUND_TRUTH_H_
#define LBSAGG_CORE_GROUND_TRUTH_H_

#include <vector>

#include "geometry/box.h"
#include "geometry/topk_region.h"
#include "spatial/kdtree.h"

namespace lbsagg {

// Exact top-h Voronoi cells from full knowledge of the dataset — the test
// oracle the estimation algorithms are validated against. Never used by the
// estimators themselves (they only see the restricted client interfaces).
//
// Cells are computed with *certified pruning*: only points within a radius ρ
// of the focal point are used as constraints, where ρ is grown until
// ρ >= 2 · max_{v ∈ cell} d(v, focal). A point farther than ρ can then never
// be closer to any cell location than the focal point is, so the pruned cell
// equals the exact one.
class GroundTruthOracle {
 public:
  GroundTruthOracle(std::vector<Vec2> positions, const Box& box);

  // Exact top-h cell of point `id`, clipped to the box. A cell no larger
  // than ComputeTopkRegion's area floor (1e-14 of the box) comes back empty,
  // with area 0, as the all-bisector computation returns it.
  TopkRegion TopkCell(int id, int h) const;

  // Area of the exact top-h cell.
  double TopkCellArea(int id, int h) const;

  // Exact sampling probability of the top-h cell under the uniform query
  // distribution: area / |B|.
  double UniformInclusionProbability(int id, int h) const;

  const Box& box() const { return box_; }
  size_t size() const { return positions_.size(); }
  const Vec2& position(int id) const { return positions_[id]; }

 private:
  std::vector<Vec2> positions_;
  Box box_;
  KdTree index_;
};

}  // namespace lbsagg

#endif  // LBSAGG_CORE_GROUND_TRUTH_H_
