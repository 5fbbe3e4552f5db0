#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/line.h"
#include "geometry/polygon.h"
#include "geometry/predicates.h"
#include "geometry/vec2.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_DOUBLE_EQ(Dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(Cross(a, b), -7.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), std::sqrt(13.0));
}

TEST(Vec2, PerpAndRotation) {
  const Vec2 v{1.0, 0.0};
  EXPECT_EQ(Perp(v), Vec2(0.0, 1.0));
  const Vec2 r = Rotated(v, M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-15);
  EXPECT_NEAR(r.y, 1.0, 1e-15);
}

TEST(Box, ContainsAndArea) {
  const Box b({0, 0}, {4, 3});
  EXPECT_DOUBLE_EQ(b.Area(), 12.0);
  EXPECT_DOUBLE_EQ(b.Perimeter(), 14.0);
  EXPECT_TRUE(b.Contains({2, 2}));
  EXPECT_TRUE(b.Contains({0, 0}));  // boundary inclusive
  EXPECT_FALSE(b.Contains({4.001, 1}));
  EXPECT_FALSE(b.ContainsInterior({0, 0}));
}

TEST(Box, SamplePointStaysInside) {
  const Box b({-5, 2}, {3, 9});
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.Contains(b.SamplePoint(rng)));
  }
}

TEST(Line, BisectorEquidistance) {
  const Vec2 a{1, 1}, b{5, 3};
  const Line bis = Line::Bisector(a, b);
  // Points on the bisector are equidistant.
  const Vec2 mid = Midpoint(a, b);
  EXPECT_NEAR(bis.Side(mid), 0.0, 1e-12);
  // Side signs: a negative, b positive.
  EXPECT_LT(bis.Side(a), 0.0);
  EXPECT_GT(bis.Side(b), 0.0);
}

TEST(Line, ProjectAndDistance) {
  const Line l = Line::Through({0, 0}, {10, 0});  // the x-axis
  EXPECT_NEAR(l.DistanceTo({3, 4}), 4.0, 1e-12);
  const Vec2 p = l.Project({3, 4});
  EXPECT_NEAR(p.x, 3.0, 1e-12);
  EXPECT_NEAR(p.y, 0.0, 1e-12);
}

TEST(Line, IntersectBasic) {
  const Line l1 = Line::Through({0, 0}, {1, 1});
  const Line l2 = Line::Through({0, 2}, {1, 1});
  const auto p = l1.Intersect(l2);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 1.0, 1e-12);
  EXPECT_NEAR(p->y, 1.0, 1e-12);
}

TEST(Line, IntersectParallelReturnsNullopt) {
  const Line l1 = Line::Through({0, 0}, {1, 0});
  const Line l2 = Line::Through({0, 1}, {1, 1});
  EXPECT_FALSE(l1.Intersect(l2).has_value());
}

TEST(Line, ReflectIsInvolution) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Vec2 a{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Vec2 b{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    if (Distance(a, b) < 1e-6) continue;
    const Line l = Line::Bisector(a, b);
    const Vec2 r = l.Reflect(a);
    EXPECT_NEAR(r.x, b.x, 1e-9);
    EXPECT_NEAR(r.y, b.y, 1e-9);
  }
}

TEST(Line, AngleIsModPi) {
  const Line l1 = Line::Through({0, 0}, {1, 1});
  const Line l2 = Line::Through({1, 1}, {0, 0});
  EXPECT_NEAR(l1.Angle(), l2.Angle(), 1e-12);
  EXPECT_NEAR(l1.Angle(), M_PI / 4.0, 1e-12);
}

TEST(Ray, ExitParamHitsBoxBoundary) {
  const Box b({0, 0}, {10, 10});
  const Ray r({5, 5}, {1, 0});
  EXPECT_NEAR(r.ExitParam(b), 5.0, 1e-12);
  const Ray diag({1, 1}, {1, 2});
  const Vec2 exit = diag.At(diag.ExitParam(b));
  EXPECT_NEAR(exit.y, 10.0, 1e-12);
}

TEST(ConvexPolygon, BoxAreaAndCentroid) {
  const ConvexPolygon p = ConvexPolygon::FromBox(Box({0, 0}, {4, 2}));
  EXPECT_DOUBLE_EQ(p.Area(), 8.0);
  const Vec2 c = p.Centroid();
  EXPECT_NEAR(c.x, 2.0, 1e-12);
  EXPECT_NEAR(c.y, 1.0, 1e-12);
}

TEST(ConvexPolygon, DegenerateInputsAreEmpty) {
  EXPECT_TRUE(ConvexPolygon(std::vector<Vec2>{}).IsEmpty());
  EXPECT_TRUE(ConvexPolygon({{0, 0}, {1, 1}}).IsEmpty());
  EXPECT_TRUE(ConvexPolygon({{0, 0}, {0, 0}, {0, 0}, {0, 0}}).IsEmpty());
  EXPECT_EQ(ConvexPolygon(std::vector<Vec2>{}).Area(), 0.0);
}

TEST(ConvexPolygon, ClipHalvesSquare) {
  const ConvexPolygon p = ConvexPolygon::FromBox(Box({0, 0}, {2, 2}));
  // Keep x <= 1.
  const ConvexPolygon clipped = p.Clip(HalfPlane(Line({1, 0}, 1.0)));
  EXPECT_NEAR(clipped.Area(), 2.0, 1e-12);
  EXPECT_TRUE(clipped.Contains({0.5, 1.0}));
  EXPECT_FALSE(clipped.Contains({1.5, 1.0}));
}

TEST(ConvexPolygon, ClipAwayEverything) {
  const ConvexPolygon p = ConvexPolygon::FromBox(Box({0, 0}, {2, 2}));
  const ConvexPolygon clipped = p.Clip(HalfPlane(Line({1, 0}, -1.0)));
  EXPECT_TRUE(clipped.IsEmpty());
}

TEST(ConvexPolygon, ClipNoOpWhenContained) {
  const ConvexPolygon p = ConvexPolygon::FromBox(Box({0, 0}, {2, 2}));
  const ConvexPolygon clipped = p.Clip(HalfPlane(Line({1, 0}, 10.0)));
  EXPECT_NEAR(clipped.Area(), p.Area(), 1e-12);
}

TEST(ConvexPolygon, SplitAreasSumToWhole) {
  Rng rng(5);
  const Box box({0, 0}, {10, 10});
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 a = box.SamplePoint(rng);
    const Vec2 b = box.SamplePoint(rng);
    if (Distance(a, b) < 1e-9) continue;
    const ConvexPolygon p = ConvexPolygon::FromBox(box);
    const auto [neg, pos] = p.Split(Line::Bisector(a, b));
    EXPECT_NEAR(neg.Area() + pos.Area(), p.Area(), 1e-6);
  }
}

TEST(ConvexPolygon, RepeatedClipsStayConsistent) {
  // Clipping by random bisectors must keep the polygon inside the box and
  // monotonically non-increasing in area.
  Rng rng(6);
  const Box box({0, 0}, {100, 100});
  const Vec2 focal{37.0, 61.0};
  ConvexPolygon p = ConvexPolygon::FromBox(box);
  double prev_area = p.Area();
  for (int i = 0; i < 64 && !p.IsEmpty(); ++i) {
    const Vec2 other = box.SamplePoint(rng);
    if (Distance(other, focal) < 1e-9) continue;
    p = p.Clip(HalfPlane::Closer(focal, other));
    EXPECT_LE(p.Area(), prev_area + 1e-9);
    prev_area = p.Area();
    if (!p.IsEmpty()) {
      EXPECT_TRUE(p.Contains(focal, 1e-9));
    }
  }
  EXPECT_FALSE(p.IsEmpty());  // the focal point's own cell never vanishes
}

TEST(ConvexPolygon, SamplePointUniformityOverTriangle) {
  const ConvexPolygon tri({{0, 0}, {2, 0}, {0, 2}});
  Rng rng(8);
  int left = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Vec2 p = tri.SamplePoint(rng);
    EXPECT_TRUE(tri.Contains(p, 1e-9));
    if (p.x < 0.5) ++left;
  }
  // P(x < 0.5) for the triangle x+y<2: area left of x=0.5 is 0.875 of the
  // total 2.0, i.e. 0.4375.
  EXPECT_NEAR(static_cast<double>(left) / n, 0.4375, 0.02);
}

TEST(ConvexPolygon, ConvexHullOfSquareWithInteriorPoints) {
  const ConvexPolygon hull = ConvexPolygon::ConvexHull(
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}, {0.2, 0.8}});
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_NEAR(hull.Area(), 1.0, 1e-12);
}

TEST(ConvexPolygon, ConvexHullDegenerate) {
  EXPECT_TRUE(ConvexPolygon::ConvexHull({{0, 0}, {1, 1}}).IsEmpty());
  EXPECT_TRUE(
      ConvexPolygon::ConvexHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}}).IsEmpty());
}

TEST(ConvexPolygon, FuzzClipSequencesMatchMonteCarlo) {
  // Property fuzz: after an arbitrary sequence of half-plane clips, the
  // polygon's area must match a Monte-Carlo estimate of the half-plane
  // intersection, and membership must agree with the raw constraints.
  Rng rng(77);
  const Box box({0, 0}, {100, 100});
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<HalfPlane> planes;
    ConvexPolygon poly = ConvexPolygon::FromBox(box);
    const int cuts = 2 + static_cast<int>(rng.UniformInt(8));
    for (int c = 0; c < cuts && !poly.IsEmpty(); ++c) {
      const Vec2 a = box.SamplePoint(rng);
      const Vec2 b = box.SamplePoint(rng);
      if (Distance(a, b) < 1e-6) continue;
      planes.emplace_back(Line::Bisector(a, b));
      poly = poly.Clip(planes.back());
    }
    int inside = 0;
    const int n = 20000;
    Rng mc(trial + 1000);
    for (int i = 0; i < n; ++i) {
      const Vec2 p = box.SamplePoint(mc);
      bool in = true;
      for (const HalfPlane& hp : planes) {
        if (!hp.Contains(p)) {
          in = false;
          break;
        }
      }
      if (in) {
        ++inside;
        EXPECT_TRUE(poly.Contains(p, 1e-6));
      }
    }
    EXPECT_NEAR(poly.Area(), box.Area() * inside / n,
                0.03 * box.Area() + 3.0);
  }
}

TEST(Predicates, CircumcenterEquidistant) {
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const Vec2 a{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Vec2 b{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Vec2 c{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    if (std::abs(Cross(b - a, c - a)) < 1e-3) continue;
    const Vec2 cc = Circumcenter(a, b, c);
    const double ra = Distance(cc, a);
    EXPECT_NEAR(Distance(cc, b), ra, 1e-6 * (1.0 + ra));
    EXPECT_NEAR(Distance(cc, c), ra, 1e-6 * (1.0 + ra));
  }
}

}  // namespace
}  // namespace lbsagg
