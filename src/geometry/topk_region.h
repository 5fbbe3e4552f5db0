#ifndef LBSAGG_GEOMETRY_TOPK_REGION_H_
#define LBSAGG_GEOMETRY_TOPK_REGION_H_

#include <vector>

#include "geometry/box.h"
#include "geometry/line.h"
#include "geometry/polygon.h"
#include "geometry/vec2.h"
#include "util/rng.h"

namespace lbsagg {

// The top-k Voronoi cell V_k(t) of a focal point t with respect to a finite
// point set S (§2.2 of the paper): the set of query locations q inside the
// bounding box for which t ranks among the k nearest of S ∪ {t}.
//
// For k = 1 the region is the classic (convex) Voronoi cell. For k > 1 it
// may be concave (Figure 1 in the paper), so it is represented as a set of
// convex pieces that tile it exactly, plus its outer boundary edges.
//
// The pieces arise from the observation that the rank of t at q,
//     rank(q) = #{ s ∈ S : d(q,s) < d(q,t) },
// only depends on which side of each bisector B(t, s) the point q lies
// (DESIGN.md §4.1). The region { rank ≤ k-1 } is computed by recursively
// splitting the box by each bisector and pruning pieces whose
// closer-count reaches k.
struct TopkRegion {
  // Convex pieces tiling the region. For k = 1 there is at most one piece.
  // The clip drops every piece no larger than 10^-14 of the domain's area,
  // so the region can be empty even when t is in the box: a tight
  // cluster's interior sites get empty k = 1 regions.
  std::vector<ConvexPolygon> pieces;

  // Outer boundary edges (including box edges and hole boundaries), in no
  // particular order. Collinear subdivision points may appear.
  std::vector<Segment> boundary_edges;

  // Total area of the region.
  double area = 0.0;

  bool IsEmpty() const { return pieces.empty(); }

  // Deduplicated endpoints of the boundary edges in boundary_edges order, the
  // first occurrence of each kept — the vertices used for the Theorem-1 test
  // loop, which probes them in this order.
  std::vector<Vec2> BoundaryVertices() const;

  // Uniform random point inside the region.
  Vec2 SamplePoint(Rng& rng) const;

  // Membership test via the pieces.
  bool Contains(const Vec2& p, double eps = 1e-9) const;

  // Tight bounding box of the region. Requires a non-empty region.
  Box BoundingBox() const;
};

// Number of points of `others` strictly closer to q than `focal` is.
int RankAt(const Vec2& q, const Vec2& focal, const std::vector<Vec2>& others);

// Generalized level-set region over a line arrangement: the set of points of
// `box` lying on the positive side of fewer than k of the oriented `lines`.
//
// ComputeTopkRegion() is the special case where the lines are the bisectors
// B(focal, other) oriented with the focal side negative. The LNR algorithms
// (§4.2) call this directly with bisector lines *inferred* from ranked
// query answers, where the tuple positions themselves are unknown.
TopkRegion ComputeLevelRegionFromLines(const std::vector<Line>& lines,
                                       const Box& box, int k);

// As above, but over an arbitrary convex domain instead of a box. Used when
// the service enforces a maximum coverage radius d_max (§5.3): the inclusion
// region of a tuple is its top-k cell intersected with the d_max disc, which
// callers pass as a fine polygonal approximation.
TopkRegion ComputeLevelRegionFromLines(const std::vector<Line>& lines,
                                       const ConvexPolygon& domain, int k);

// Top-k cell over a convex domain (cell ∩ domain).
TopkRegion ComputeTopkRegion(const Vec2& focal, const std::vector<Vec2>& others,
                             const ConvexPolygon& domain, int k);

// Reference implementations without the spatial line pruning, used by tests
// to pin down that pruning never changes the result (DESIGN.md "Hot path &
// complexity" gives the no-op argument: a line whose negative half-plane
// contains the live bounding box with margin can split nothing and cannot
// flip any boundary probe, so dropping it is exact).
TopkRegion ComputeLevelRegionFromLinesUnpruned(const std::vector<Line>& lines,
                                               const ConvexPolygon& domain,
                                               int k);
TopkRegion ComputeTopkRegionUnpruned(const Vec2& focal,
                                     const std::vector<Vec2>& others,
                                     const ConvexPolygon& domain, int k);

// Inscribed regular n-gon of the disc around `center` — the polygonal
// approximation of a d_max disc. The area defect vs the true disc is
// (2π³/3n²)·r², i.e. < 1e-4 relative for n = 256.
ConvexPolygon InscribedCirclePolygon(const Vec2& center, double radius,
                                     int sides = 256);

// `domain` clipped to the default InscribedCirclePolygon(center, radius):
// one half-plane per polygon edge, in vertex order, stopping early once the
// domain is empty. The §5.3 d_max disc clip of the LR and LNR cells.
ConvexPolygon ClipToDisc(ConvexPolygon domain, const Vec2& center,
                         double radius);

// Computes V_k(focal) with respect to `others`, clipped to `box`. Points of
// `others` coincident with `focal` are ignored. Requires k >= 1.
//
// The result is exact up to floating-point clipping accuracy. Complexity is
// O(P · m) splits where P is the number of surviving pieces (P = 1 for
// k = 1; small for the k ≤ 10 used by LBS interfaces).
TopkRegion ComputeTopkRegion(const Vec2& focal, const std::vector<Vec2>& others,
                             const Box& box, int k);

// ComputeTopkRegion(focal, others, box, k).area, bit for bit: the same
// pruned clip loop and the same in-order sum over the surviving pieces,
// without assembling the region (no boundary extraction). For callers that
// read only the area, such as the adaptive-h bound λ_h (§3.2.3).
double ComputeTopkRegionArea(const Vec2& focal, const std::vector<Vec2>& others,
                             const Box& box, int k);

}  // namespace lbsagg

#endif  // LBSAGG_GEOMETRY_TOPK_REGION_H_
