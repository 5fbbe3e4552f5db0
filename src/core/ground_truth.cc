#include "core/ground_truth.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lbsagg {

GroundTruthOracle::GroundTruthOracle(std::vector<Vec2> positions,
                                     const Box& box)
    : positions_(std::move(positions)), box_(box), index_(positions_) {
  LBSAGG_CHECK(!positions_.empty());
}

TopkRegion GroundTruthOracle::TopkCell(int id, int h) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), positions_.size());
  LBSAGG_CHECK_GE(h, 1);
  const Vec2& focal = positions_[id];

  // Initial radius: enough to capture h+1 neighbors.
  const std::vector<Neighbor> nearest =
      index_.Nearest(focal, std::min<int>(h + 2, positions_.size()));
  double rho = 1e-9;
  for (const Neighbor& n : nearest) rho = std::max(rho, n.distance);
  rho *= 4.0;
  const double diag = Distance(box_.lo, box_.hi);

  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<Vec2> candidates;
    for (const Neighbor& n : index_.WithinRadius(focal, rho)) {
      if (n.index != id) candidates.push_back(positions_[n.index]);
    }
    TopkRegion region = ComputeTopkRegion(focal, candidates, box_, h);
    // No piece survives when the cell is no larger than ComputeTopkRegion's
    // area floor (1e-14 of the box), as in a tight cluster of sites. The
    // points left out only shrink the cell further, so it is empty too.
    if (region.IsEmpty()) return region;

    // Farthest cell point from the focal tuple: the maximum over all piece
    // vertices (each piece is convex, so its maximum is at a vertex).
    double max_dist = 0.0;
    for (const ConvexPolygon& piece : region.pieces) {
      max_dist = std::max(max_dist, piece.MaxDistanceFrom(focal));
    }
    if (rho >= 2.0 * max_dist || rho >= 2.0 * diag) return region;
    rho = 2.2 * max_dist;
  }
  LBSAGG_CHECK(false) << "certified pruning did not converge";
  return {};
}

double GroundTruthOracle::TopkCellArea(int id, int h) const {
  return TopkCell(id, h).area;
}

double GroundTruthOracle::UniformInclusionProbability(int id, int h) const {
  return TopkCellArea(id, h) / box_.Area();
}

}  // namespace lbsagg
