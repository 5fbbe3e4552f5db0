#ifndef LBSAGG_GEOMETRY_VORONOI_DIAGRAM_H_
#define LBSAGG_GEOMETRY_VORONOI_DIAGRAM_H_

#include <vector>

#include "geometry/box.h"
#include "geometry/polygon.h"
#include "geometry/vec2.h"

namespace lbsagg {

// Complete (top-1) Voronoi decomposition of a point set, clipped to a box —
// Definition 1 of the paper with the B-bound making every cell finite.
//
// Built from the Delaunay triangulation: the Voronoi cell of point i is the
// box clipped by the bisectors with its Delaunay neighbors, which are
// exactly its Voronoi neighbors. Used for ground truth in tests and for the
// Figure-11 decomposition benchmark.
class VoronoiDiagram {
 public:
  // Computes all cells. Points must be distinct and at least 3.
  static VoronoiDiagram Build(const std::vector<Vec2>& points, const Box& box);

  size_t size() const { return cells_.size(); }
  const ConvexPolygon& Cell(int i) const { return cells_[i]; }
  const std::vector<ConvexPolygon>& cells() const { return cells_; }

  // Sum of all cell areas; equals box.Area() up to clipping error (the cells
  // partition the box — a property test asserts this).
  double TotalArea() const;

 private:
  VoronoiDiagram() = default;

  std::vector<ConvexPolygon> cells_;
};

}  // namespace lbsagg

#endif  // LBSAGG_GEOMETRY_VORONOI_DIAGRAM_H_
