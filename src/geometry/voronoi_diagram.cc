#include "geometry/voronoi_diagram.h"

#include "geometry/delaunay.h"
#include "geometry/line.h"
#include "util/check.h"

namespace lbsagg {

VoronoiDiagram VoronoiDiagram::Build(const std::vector<Vec2>& points,
                                     const Box& box) {
  LBSAGG_CHECK_GE(points.size(), 3u);
  const Delaunay delaunay(points);

  VoronoiDiagram diagram;
  diagram.cells_.reserve(points.size());

  for (size_t i = 0; i < points.size(); ++i) {
    ConvexPolygon cell = ConvexPolygon::FromBox(box);
    for (int j : delaunay.Neighbors(static_cast<int>(i))) {
      cell = cell.Clip(HalfPlane::Closer(points[i], points[j]));
      if (cell.IsEmpty()) break;
    }
    diagram.cells_.push_back(std::move(cell));
  }
  return diagram;
}

double VoronoiDiagram::TotalArea() const {
  double total = 0.0;
  for (const ConvexPolygon& cell : cells_) total += cell.Area();
  return total;
}

}  // namespace lbsagg
