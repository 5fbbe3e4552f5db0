#ifndef LBSAGG_LBS_TRILATERATION_H_
#define LBSAGG_LBS_TRILATERATION_H_

#include <optional>

#include "geometry/vec2.h"

namespace lbsagg {

// Solves for the point p with |p − q_i| = d_i, i = 0..2, by linearizing the
// circle equations. Returns nullopt when the query points are (nearly)
// collinear. The distances may be slightly inconsistent (noise); the
// least-constraint linear solution is returned.
std::optional<Vec2> Trilaterate(const Vec2 centers[3], const double dists[3]);

}  // namespace lbsagg

#endif  // LBSAGG_LBS_TRILATERATION_H_
