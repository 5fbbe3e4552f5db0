#include "geometry/predicates.h"

#include "util/check.h"

namespace lbsagg {

Vec2 Circumcenter(const Vec2& a, const Vec2& b, const Vec2& c) {
  const long double ax = a.x, ay = a.y;
  const long double bx = b.x - ax, by = b.y - ay;
  const long double cx = c.x - ax, cy = c.y - ay;
  const long double d = 2.0L * (bx * cy - by * cx);
  LBSAGG_CHECK_NE(d, 0.0L) << "Circumcenter of collinear points";
  const long double b2 = bx * bx + by * by;
  const long double c2 = cx * cx + cy * cy;
  const long double ux = (cy * b2 - by * c2) / d;
  const long double uy = (bx * c2 - cx * b2) / d;
  return {static_cast<double>(ux + ax), static_cast<double>(uy + ay)};
}

}  // namespace lbsagg
