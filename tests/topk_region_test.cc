#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/topk_region.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

std::vector<Vec2> RandomPoints(int n, Rng& rng) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

std::vector<Vec2> OthersOf(const std::vector<Vec2>& pts, size_t focal) {
  std::vector<Vec2> others;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i != focal) others.push_back(pts[i]);
  }
  return others;
}

TEST(TopkRegion, SinglePointOwnsWholeBox) {
  const TopkRegion r = ComputeTopkRegion({50, 50}, {}, kBox, 1);
  EXPECT_EQ(r.pieces.size(), 1u);
  EXPECT_NEAR(r.area, kBox.Area(), 1e-9);
}

TEST(TopkRegion, TwoPointsSplitTheBoxEvenly) {
  const TopkRegion r = ComputeTopkRegion({25, 50}, {{75, 50}}, kBox, 1);
  EXPECT_NEAR(r.area, kBox.Area() / 2.0, 1e-9);
  EXPECT_TRUE(r.Contains({10, 50}));
  EXPECT_FALSE(r.Contains({90, 50}));
}

TEST(TopkRegion, Top2OfTwoPointsIsEverything) {
  const TopkRegion r = ComputeTopkRegion({25, 50}, {{75, 50}}, kBox, 2);
  EXPECT_NEAR(r.area, kBox.Area(), 1e-9);
}

TEST(TopkRegion, K1IsConvexSinglePiece) {
  Rng rng(101);
  const std::vector<Vec2> pts = RandomPoints(20, rng);
  const TopkRegion r = ComputeTopkRegion(pts[0], OthersOf(pts, 0), kBox, 1);
  EXPECT_EQ(r.pieces.size(), 1u);
  EXPECT_TRUE(r.Contains(pts[0]));
}

TEST(TopkRegion, ContainsFocalPointForAllK) {
  Rng rng(103);
  const std::vector<Vec2> pts = RandomPoints(30, rng);
  for (int k = 1; k <= 5; ++k) {
    const TopkRegion r = ComputeTopkRegion(pts[3], OthersOf(pts, 3), kBox, k);
    EXPECT_TRUE(r.Contains(pts[3], 1e-6)) << "k=" << k;
  }
}

TEST(TopkRegion, MonotoneInK) {
  Rng rng(107);
  const std::vector<Vec2> pts = RandomPoints(25, rng);
  double prev = 0.0;
  for (int k = 1; k <= 6; ++k) {
    const TopkRegion r = ComputeTopkRegion(pts[7], OthersOf(pts, 7), kBox, k);
    EXPECT_GE(r.area, prev - 1e-9) << "k=" << k;
    prev = r.area;
  }
}

TEST(TopkRegion, MembershipMatchesRankDefinition) {
  Rng rng(109);
  const std::vector<Vec2> pts = RandomPoints(15, rng);
  const std::vector<Vec2> others = OthersOf(pts, 4);
  for (int k = 1; k <= 4; ++k) {
    const TopkRegion r = ComputeTopkRegion(pts[4], others, kBox, k);
    for (int i = 0; i < 500; ++i) {
      const Vec2 q = kBox.SamplePoint(rng);
      const bool in_region = r.Contains(q, 1e-9);
      const bool by_rank = RankAt(q, pts[4], others) < k;
      // Allow disagreement only within a hair of the boundary.
      if (in_region != by_rank) {
        bool near_boundary = false;
        for (const Segment& s : r.boundary_edges) {
          const Line l = Line::Through(s.a, s.b);
          if (l.DistanceTo(q) < 1e-6) near_boundary = true;
        }
        EXPECT_TRUE(near_boundary)
            << "q=" << q << " k=" << k << " in_region=" << in_region;
      }
    }
  }
}

// Σ_t |V_k(t)| = k · |B|: every location lies in exactly k top-k cells
// (§2.2, first observation).
class TopkPartitionTest : public ::testing::TestWithParam<int> {};

TEST_P(TopkPartitionTest, CellAreasSumToKTimesBoxArea) {
  const int k = GetParam();
  Rng rng(113 + k);
  const std::vector<Vec2> pts = RandomPoints(18, rng);
  double total = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    total += ComputeTopkRegion(pts[i], OthersOf(pts, i), kBox, k).area;
  }
  EXPECT_NEAR(total, k * kBox.Area(), 1e-5 * kBox.Area());
}

INSTANTIATE_TEST_SUITE_P(AllK, TopkPartitionTest, ::testing::Values(1, 2, 3, 5));

TEST(TopkRegion, SubsetCellContainsFullCell) {
  // Theorem 1 precondition: the cell from a subset of constraints covers
  // the true cell.
  Rng rng(127);
  const std::vector<Vec2> pts = RandomPoints(40, rng);
  const std::vector<Vec2> all = OthersOf(pts, 0);
  std::vector<Vec2> subset(all.begin(), all.begin() + 10);
  for (int k : {1, 3}) {
    const TopkRegion full = ComputeTopkRegion(pts[0], all, kBox, k);
    const TopkRegion partial = ComputeTopkRegion(pts[0], subset, kBox, k);
    EXPECT_GE(partial.area, full.area - 1e-9);
    // Every point of the full cell is in the partial cell.
    Rng rng2(131);
    for (int i = 0; i < 300; ++i) {
      const Vec2 q = full.SamplePoint(rng2);
      EXPECT_TRUE(partial.Contains(q, 1e-6));
    }
  }
}

TEST(TopkRegion, BoundaryVerticesLieOnBoundary) {
  Rng rng(137);
  const std::vector<Vec2> pts = RandomPoints(25, rng);
  const std::vector<Vec2> others = OthersOf(pts, 2);
  for (int k : {1, 2, 4}) {
    const TopkRegion r = ComputeTopkRegion(pts[2], others, kBox, k);
    for (const Vec2& v : r.BoundaryVertices()) {
      // A boundary vertex is in the closed region...
      EXPECT_TRUE(r.Contains(v, 1e-6));
      // ...and not interior: some nearby point is outside.
      bool outside_nearby = false;
      for (int a = 0; a < 16; ++a) {
        const double ang = 2 * M_PI * a / 16;
        const Vec2 probe = v + Vec2{std::cos(ang), std::sin(ang)} * 1e-4;
        if (!kBox.Contains(probe) ||
            RankAt(probe, pts[2], others) >= k) {
          outside_nearby = true;
          break;
        }
      }
      EXPECT_TRUE(outside_nearby) << "vertex " << v << " seems interior";
    }
  }
}

TEST(TopkRegion, SamplePointsStayInRegion) {
  Rng rng(139);
  const std::vector<Vec2> pts = RandomPoints(20, rng);
  const std::vector<Vec2> others = OthersOf(pts, 5);
  const TopkRegion r = ComputeTopkRegion(pts[5], others, kBox, 3);
  for (int i = 0; i < 1000; ++i) {
    const Vec2 p = r.SamplePoint(rng);
    EXPECT_TRUE(kBox.Contains(p));
    EXPECT_LT(RankAt(p, pts[5], others), 3);
  }
}

TEST(TopkRegion, LevelRegionFromLinesMatchesBisectors) {
  Rng rng(149);
  const std::vector<Vec2> pts = RandomPoints(12, rng);
  const Vec2 focal = pts[0];
  const std::vector<Vec2> others = OthersOf(pts, 0);
  std::vector<Line> lines;
  for (const Vec2& o : others) lines.push_back(Line::Bisector(focal, o));
  for (int k : {1, 2, 3}) {
    const TopkRegion a = ComputeTopkRegion(focal, others, kBox, k);
    const TopkRegion b = ComputeLevelRegionFromLines(lines, kBox, k);
    EXPECT_NEAR(a.area, b.area, 1e-7 * kBox.Area());
  }
}

TEST(TopkRegion, DuplicateOfFocalIgnored) {
  const Vec2 focal{50, 50};
  const TopkRegion r =
      ComputeTopkRegion(focal, {focal, {80, 50}}, kBox, 1);
  EXPECT_NEAR(r.area, kBox.Area() * 0.65, 1e-9);
}

TEST(TopkRegion, InscribedCirclePolygonArea) {
  const ConvexPolygon disc = InscribedCirclePolygon({50, 50}, 10.0, 256);
  EXPECT_EQ(disc.size(), 256u);
  // Inscribed n-gon area = (n/2) r^2 sin(2π/n); relative defect < 1e-3.
  EXPECT_NEAR(disc.Area(), M_PI * 100.0, 1e-3 * M_PI * 100.0);
  EXPECT_TRUE(disc.Contains({50, 50}));
  EXPECT_FALSE(disc.Contains({61, 50}));
}

TEST(TopkRegion, DomainOverloadClipsRegion) {
  const Vec2 focal{50, 50};
  const std::vector<Vec2> others = {{80, 50}};
  const ConvexPolygon domain = InscribedCirclePolygon(focal, 10.0);
  const TopkRegion r = ComputeTopkRegion(focal, others, domain, 1);
  // The bisector x = 65 does not cut the radius-10 disc: the whole disc.
  EXPECT_NEAR(r.area, domain.Area(), 1e-9);
  const TopkRegion r2 =
      ComputeTopkRegion(focal, std::vector<Vec2>{{58, 50}}, domain, 1);
  // Bisector x = 54 cuts the disc: circular segment areas must add up.
  EXPECT_LT(r2.area, domain.Area());
  EXPECT_GT(r2.area, 0.5 * domain.Area());
}

TEST(TopkRegion, ConcaveTopKCellIsRepresented) {
  // Figure 1-style configuration: a ring of points around a center makes
  // the top-2 cell of an off-center tuple concave; the piece decomposition
  // must still represent it exactly (area check against brute force).
  std::vector<Vec2> others;
  const Vec2 center{50, 50};
  for (int i = 0; i < 5; ++i) {
    const double a = 2 * M_PI * i / 5;
    others.push_back(center + Vec2{std::cos(a), std::sin(a)} * 20.0);
  }
  const Vec2 focal = center + Vec2{25.0, 0.0};
  std::vector<Vec2> ring_others;
  for (const Vec2& o : others) {
    if (Distance(o, focal) > 1e-9) ring_others.push_back(o);
  }
  const TopkRegion r = ComputeTopkRegion(focal, ring_others, kBox, 2);
  // Monte-Carlo brute-force area.
  Rng rng(151);
  int inside = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const Vec2 q = kBox.SamplePoint(rng);
    if (RankAt(q, focal, ring_others) < 2) ++inside;
  }
  const double mc_area = kBox.Area() * inside / n;
  EXPECT_NEAR(r.area, mc_area, 0.02 * kBox.Area());
  EXPECT_GT(r.pieces.size(), 1u);  // genuinely non-convex decomposition
}

// --- Pruning regression (DESIGN.md "Hot path & complexity").

std::vector<Vec2> SortedVertices(const TopkRegion& r) {
  std::vector<Vec2> vs = r.BoundaryVertices();
  std::sort(vs.begin(), vs.end(), [](const Vec2& a, const Vec2& b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  return vs;
}

// Points in a few tight Gaussian clusters: near-ties between bisectors and
// thin slivers are common, and most lines are far from any live piece.
std::vector<Vec2> ClusteredPoints(int n, Rng& rng) {
  std::vector<Vec2> centers;
  for (int c = 0; c < 3; ++c) centers.push_back(kBox.SamplePoint(rng));
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    const Vec2& c = centers[rng.UniformInt(centers.size())];
    const Vec2 p{c.x + rng.Normal(0.0, 2.0), c.y + rng.Normal(0.0, 2.0)};
    pts.push_back({std::clamp(p.x, kBox.lo.x, kBox.hi.x),
                   std::clamp(p.y, kBox.lo.y, kBox.hi.y)});
  }
  return pts;
}

// Line pruning only skips lines whose clip would be a no-op, so the pruned
// production path must be *bit-identical* to the unpruned reference: same
// area double, same piece decomposition, same boundary vertices. The
// area-only path runs the pruned loop without assembling the region and
// must return the same area double. Inputs: uniform points, clustered
// points, and a focal tuple on the box edge (and in a corner).
TEST(TopkRegionPruning, PrunedMatchesUnprunedBitExact) {
  struct Case {
    uint64_t seed;
    Vec2 focal;
    std::vector<Vec2> others;
  };
  std::vector<Case> cases;
  for (const uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    Rng rng(seed);
    const std::vector<Vec2> pts = RandomPoints(40, rng);
    cases.push_back({seed, pts[0], OthersOf(pts, 0)});
  }
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    Rng rng(seed);
    const std::vector<Vec2> pts = ClusteredPoints(60, rng);
    cases.push_back({seed, pts[0], OthersOf(pts, 0)});
  }
  for (const uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    const std::vector<Vec2> pts = RandomPoints(40, rng);
    for (const Vec2& focal : {Vec2{kBox.lo.x, pts[0].y},
                              Vec2{pts[0].x, kBox.hi.y},
                              Vec2{kBox.hi.x, kBox.lo.y}}) {
      cases.push_back({seed, focal, OthersOf(pts, 0)});
    }
  }
  const ConvexPolygon domain = ConvexPolygon::FromBox(kBox);
  for (const Case& c : cases) {
    for (int h = 1; h <= 5; ++h) {
      const TopkRegion pruned = ComputeTopkRegion(c.focal, c.others, domain, h);
      const TopkRegion reference =
          ComputeTopkRegionUnpruned(c.focal, c.others, domain, h);
      ASSERT_EQ(pruned.pieces.size(), reference.pieces.size())
          << "seed " << c.seed << " focal " << c.focal << " h " << h;
      EXPECT_EQ(pruned.area, reference.area)
          << "seed " << c.seed << " focal " << c.focal << " h " << h;
      EXPECT_EQ(ComputeTopkRegionArea(c.focal, c.others, kBox, h),
                reference.area)
          << "seed " << c.seed << " focal " << c.focal << " h " << h;
      const auto va = SortedVertices(pruned);
      const auto vb = SortedVertices(reference);
      ASSERT_EQ(va.size(), vb.size())
          << "seed " << c.seed << " focal " << c.focal << " h " << h;
      for (size_t i = 0; i < va.size(); ++i) {
        EXPECT_EQ(va[i].x, vb[i].x);
        EXPECT_EQ(va[i].y, vb[i].y);
      }
    }
  }
}

uint64_t MixBits(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t MixPoint(uint64_t h, const Vec2& p) {
  return MixBits(MixBits(h, p.x), p.y);
}

// The region's output bits in the order callers see them: the area, each
// piece's vertices, the boundary edges, the probe vertices in probe order,
// and the area-only path. PrunedMatchesUnprunedBitExact runs both of its
// sides through the same clip step and compares vertices sorted, so it
// sees neither a change shared by both sides nor a change of probe order;
// this case pins both against fixed values. Inputs: points at integer
// offsets from an integer focal point with exactly tied distances (so the
// bisector sort meets ties), in three input orders; clustered points with
// copies 1e-7 apart; and the clustered points with the focal point on a
// box edge and in a box corner.
TEST(TopkRegionPruning, OutputBitsPinnedInOrder) {
  struct Case {
    Vec2 focal;
    std::vector<Vec2> others;
  };
  std::vector<Case> cases;

  const Vec2 center{50, 40};
  // Pythagorean offsets: 12 points each at distance 5, 10, 13, 17 and 25.
  const int offsets[][2] = {{3, 4},  {4, 3},  {5, 0},  {0, 5},  {6, 8},
                            {8, 6},  {10, 0}, {0, 10}, {5, 12}, {12, 5},
                            {13, 0}, {0, 13}, {8, 15}, {15, 8}, {17, 0},
                            {0, 17}, {7, 24}, {24, 7}, {25, 0}, {0, 25}};
  std::vector<Vec2> tied;
  for (const auto& off : offsets) {
    for (const int sx : {1, -1}) {
      for (const int sy : {1, -1}) {
        if ((off[0] == 0 && sx < 0) || (off[1] == 0 && sy < 0)) continue;
        tied.push_back(center + Vec2{static_cast<double>(sx * off[0]),
                                     static_cast<double>(sy * off[1])});
      }
    }
  }
  cases.push_back({center, tied});
  cases.push_back({center, {tied.rbegin(), tied.rend()}});
  Rng shuffle_rng(41);
  for (size_t i = tied.size(); i > 1; --i) {
    std::swap(tied[i - 1], tied[shuffle_rng.UniformInt(i)]);
  }
  cases.push_back({center, tied});

  for (const uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    std::vector<Vec2> pts = ClusteredPoints(60, rng);
    for (size_t i = 0; i < 60; i += 6) pts.push_back(pts[i] + Vec2{1e-7, 0});
    const std::vector<Vec2> others = OthersOf(pts, 0);
    for (const Vec2& focal : {pts[0], Vec2{kBox.lo.x, pts[0].y},
                              Vec2{kBox.hi.x, kBox.lo.y}}) {
      cases.push_back({focal, others});
    }
  }

  uint64_t hash = 0;
  for (const Case& c : cases) {
    for (int h = 1; h <= 5; ++h) {
      const TopkRegion r = ComputeTopkRegion(c.focal, c.others, kBox, h);
      hash = MixBits(hash, r.area);
      for (const ConvexPolygon& piece : r.pieces) {
        for (const Vec2& v : piece.vertices()) hash = MixPoint(hash, v);
      }
      for (const Segment& s : r.boundary_edges) {
        hash = MixPoint(MixPoint(hash, s.a), s.b);
      }
      for (const Vec2& v : r.BoundaryVertices()) hash = MixPoint(hash, v);
      hash = MixBits(hash, ComputeTopkRegionArea(c.focal, c.others, kBox, h));
    }
  }
  EXPECT_EQ(hash, 0xfd8d5b9862672639ull) << std::hex << hash;
}

TEST(TopkRegionPruning, LevelRegionFromLinesMatchesUnpruned) {
  Rng rng(77);
  const std::vector<Vec2> pts = RandomPoints(30, rng);
  const ConvexPolygon domain = ConvexPolygon::FromBox(kBox);
  const Vec2 focal = pts[0];
  std::vector<Line> lines;
  for (size_t i = 1; i < pts.size(); ++i) {
    lines.push_back(Line::Bisector(focal, pts[i]));
  }
  for (int h = 1; h <= 4; ++h) {
    const TopkRegion pruned = ComputeLevelRegionFromLines(lines, domain, h);
    const TopkRegion reference =
        ComputeLevelRegionFromLinesUnpruned(lines, domain, h);
    EXPECT_EQ(pruned.area, reference.area) << "h " << h;
    EXPECT_EQ(pruned.pieces.size(), reference.pieces.size()) << "h " << h;
  }
}

}  // namespace
}  // namespace lbsagg
