#include "lbs/trilateration.h"

#include <algorithm>
#include <cmath>

namespace lbsagg {

std::optional<Vec2> Trilaterate(const Vec2 centers[3], const double dists[3]) {
  // Subtracting the circle equation at centers[0] from the other two gives
  // two linear equations A p = b.
  const Vec2 r1 = centers[1] - centers[0];
  const Vec2 r2 = centers[2] - centers[0];
  const double det = 2.0 * Cross(r1, r2);
  const double scale =
      std::max({1.0, SquaredNorm(r1), SquaredNorm(r2)});
  if (std::abs(det) < 1e-12 * scale) return std::nullopt;

  const double b1 = SquaredNorm(centers[1]) - SquaredNorm(centers[0]) +
                    dists[0] * dists[0] - dists[1] * dists[1];
  const double b2 = SquaredNorm(centers[2]) - SquaredNorm(centers[0]) +
                    dists[0] * dists[0] - dists[2] * dists[2];
  // Solve [2 r1; 2 r2] p = [b1; b2] by Cramer's rule.
  const double x = (b1 * (2.0 * r2.y) - b2 * (2.0 * r1.y)) / (2.0 * det);
  const double y = ((2.0 * r1.x) * b2 - (2.0 * r2.x) * b1) / (2.0 * det);
  return Vec2{x, y};
}

}  // namespace lbsagg
