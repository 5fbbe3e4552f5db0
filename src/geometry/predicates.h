#ifndef LBSAGG_GEOMETRY_PREDICATES_H_
#define LBSAGG_GEOMETRY_PREDICATES_H_

#include "geometry/vec2.h"

namespace lbsagg {

// Circumcenter of triangle (a, b, c), computed in long double and rounded
// once to double. Requires the points to be non-collinear. LNR cell
// inference (core/lnr_cell) uses it to find the centre of a d_max coverage
// disc from three boundary points that lie on its circle.
Vec2 Circumcenter(const Vec2& a, const Vec2& b, const Vec2& c);

}  // namespace lbsagg

#endif  // LBSAGG_GEOMETRY_PREDICATES_H_
