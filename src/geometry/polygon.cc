#include "geometry/polygon.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lbsagg {

ConvexPolygon::ConvexPolygon(std::vector<Vec2> vertices)
    : vertices_(std::move(vertices)) {
  Normalize();
}

ConvexPolygon ConvexPolygon::FromBox(const Box& box) {
  Vec2 corners[4];
  box.Corners(corners);
  return ConvexPolygon({corners[0], corners[1], corners[2], corners[3]});
}

void ConvexPolygon::Normalize(double eps) {
  if (vertices_.size() < 3) {
    vertices_.clear();
    return;
  }
  // Compacts in place: vertices_[0..kept) is the cleaned prefix.
  size_t kept = 0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (kept == 0 || Distance(vertices_[kept - 1], vertices_[i]) > eps) {
      vertices_[kept++] = vertices_[i];
    }
  }
  while (kept >= 2 && Distance(vertices_[0], vertices_[kept - 1]) <= eps) {
    --kept;
  }
  if (kept < 3) kept = 0;
  vertices_.resize(kept);
}

double ConvexPolygon::Area() const {
  if (IsEmpty()) return 0.0;
  double twice = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2& a = vertices_[i];
    const Vec2& b = vertices_[(i + 1) % vertices_.size()];
    twice += Cross(a, b);
  }
  return 0.5 * std::abs(twice);
}

Vec2 ConvexPolygon::Centroid() const {
  LBSAGG_CHECK(!IsEmpty());
  double twice = 0.0;
  Vec2 acc{0.0, 0.0};
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2& a = vertices_[i];
    const Vec2& b = vertices_[(i + 1) % vertices_.size()];
    const double c = Cross(a, b);
    twice += c;
    acc += (a + b) * c;
  }
  if (std::abs(twice) < 1e-300) {
    // Degenerate sliver: fall back to the vertex average.
    Vec2 sum{0.0, 0.0};
    for (const Vec2& v : vertices_) sum += v;
    return sum / static_cast<double>(vertices_.size());
  }
  return acc / (3.0 * twice);
}

bool ConvexPolygon::Contains(const Vec2& p, double eps) const {
  if (IsEmpty()) return false;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2& a = vertices_[i];
    const Vec2& b = vertices_[(i + 1) % vertices_.size()];
    // CCW polygon: interior is to the left of every edge.
    if (Cross(b - a, p - a) < -eps * Distance(a, b)) return false;
  }
  return true;
}

ConvexPolygon ConvexPolygon::Clip(const HalfPlane& hp, double eps) const {
  if (IsEmpty()) return {};
  std::vector<Vec2> out;
  out.reserve(vertices_.size() + 1);
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Vec2& cur = vertices_[i];
    const Vec2& nxt = vertices_[(i + 1) % n];
    const double s_cur = hp.line.Side(cur);
    const double s_nxt = hp.line.Side(nxt);
    const bool in_cur = s_cur <= eps;
    const bool in_nxt = s_nxt <= eps;
    if (in_cur) out.push_back(cur);
    if (in_cur != in_nxt) {
      const double denom = s_cur - s_nxt;
      if (std::abs(denom) > 1e-300) {
        const double t = s_cur / denom;
        out.push_back(cur + (nxt - cur) * t);
      }
    }
  }
  return ConvexPolygon(std::move(out));
}

std::pair<ConvexPolygon, ConvexPolygon> ConvexPolygon::Split(
    const Line& line, double eps) const {
  ConvexPolygon neg = Clip(HalfPlane(line), eps);
  ConvexPolygon pos = Clip(HalfPlane(Line(-line.normal, -line.offset)), eps);
  return {std::move(neg), std::move(pos)};
}

Vec2 ConvexPolygon::SamplePoint(Rng& rng) const {
  LBSAGG_CHECK(!IsEmpty());
  // Fan triangulation from vertex 0; pick a triangle proportional to area.
  const size_t n = vertices_.size();
  std::vector<double> areas(n - 2);
  for (size_t i = 1; i + 1 < n; ++i) {
    areas[i - 1] =
        0.5 * std::abs(Cross(vertices_[i] - vertices_[0],
                             vertices_[i + 1] - vertices_[0]));
  }
  double total = 0.0;
  for (double a : areas) total += a;
  size_t tri = 0;
  if (total > 0.0) {
    tri = rng.Categorical(areas);
  }
  const Vec2& a = vertices_[0];
  const Vec2& b = vertices_[tri + 1];
  const Vec2& c = vertices_[tri + 2];
  double u = rng.Uniform01();
  double v = rng.Uniform01();
  if (u + v > 1.0) {
    u = 1.0 - u;
    v = 1.0 - v;
  }
  return a + (b - a) * u + (c - a) * v;
}

Box ConvexPolygon::BoundingBox() const {
  LBSAGG_CHECK(!IsEmpty());
  Vec2 lo = vertices_[0];
  Vec2 hi = vertices_[0];
  for (const Vec2& v : vertices_) {
    lo.x = std::min(lo.x, v.x);
    lo.y = std::min(lo.y, v.y);
    hi.x = std::max(hi.x, v.x);
    hi.y = std::max(hi.y, v.y);
  }
  return Box(lo, hi);
}

ConvexPolygon ConvexPolygon::ConvexHull(std::vector<Vec2> points) {
  if (points.size() < 3) return {};
  std::sort(points.begin(), points.end(), [](const Vec2& a, const Vec2& b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  if (points.size() < 3) return {};
  const size_t n = points.size();
  std::vector<Vec2> hull(2 * n);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {  // lower hull
    while (k >= 2 && Cross(hull[k - 1] - hull[k - 2],
                           points[i] - hull[k - 2]) <= 0.0) {
      --k;
    }
    hull[k++] = points[i];
  }
  const size_t lower = k + 1;
  for (size_t i = n - 1; i-- > 0;) {  // upper hull
    while (k >= lower && Cross(hull[k - 1] - hull[k - 2],
                               points[i] - hull[k - 2]) <= 0.0) {
      --k;
    }
    hull[k++] = points[i];
  }
  hull.resize(k - 1);
  return ConvexPolygon(std::move(hull));
}

double ConvexPolygon::MaxDistanceFrom(const Vec2& p) const {
  double best = 0.0;
  for (const Vec2& v : vertices_) best = std::max(best, Distance(p, v));
  return best;
}

}  // namespace lbsagg
