#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/delaunay.h"
#include "geometry/predicates.h"
#include "geometry/topk_region.h"
#include "geometry/voronoi_diagram.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

struct NamedPoints {
  std::string name;
  std::vector<Vec2> pts;
};

// Inputs for the oracle tests below: uniform sets of several sizes, an
// almost perfect grid (near-cocircular quadruples), and a dense cluster
// beside uniform sites (cell areas spanning many orders of magnitude).
std::vector<NamedPoints> OracleInputs() {
  std::vector<NamedPoints> inputs = {{"random30", RandomPoints(30, 223)},
                                     {"random60", RandomPoints(60, 201)}};
  for (int n : {5, 20, 100, 500}) {
    inputs.push_back(
        {"random" + std::to_string(n), RandomPoints(n, 5000 + n)});
  }
  Rng grid_rng(5557);
  std::vector<Vec2> grid;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      grid.push_back({i * 12.0 + grid_rng.Uniform(-1e-3, 1e-3),
                      j * 12.0 + grid_rng.Uniform(-1e-3, 1e-3)});
    }
  }
  inputs.push_back({"jittered_grid", std::move(grid)});
  Rng cluster_rng(5559);
  std::vector<Vec2> cluster;
  for (int i = 0; i < 60; ++i) {
    cluster.push_back({40.0 + cluster_rng.Uniform(-1e-5, 1e-5),
                       60.0 + cluster_rng.Uniform(-1e-5, 1e-5)});
  }
  for (int i = 0; i < 60; ++i) cluster.push_back(kBox.SamplePoint(cluster_rng));
  inputs.push_back({"cluster", std::move(cluster)});
  return inputs;
}

TEST(Delaunay, TriangleOfThreePoints) {
  const Delaunay d({{0, 0}, {10, 0}, {0, 10}});
  const auto tris = d.Triangles();
  ASSERT_EQ(tris.size(), 1u);
  EXPECT_EQ(d.Neighbors(0).size(), 2u);
  EXPECT_EQ(d.Neighbors(1).size(), 2u);
  EXPECT_EQ(d.Neighbors(2).size(), 2u);
}

TEST(Delaunay, EmptyCircumcirclePropertyHolds) {
  for (const auto& [name, pts] : OracleInputs()) {
    SCOPED_TRACE(name);
    const Delaunay d(pts);
    for (const std::array<int, 3>& t : d.Triangles()) {
      Vec2 a = pts[t[0]], b = pts[t[1]], c = pts[t[2]];
      if (Orient2d(a, b, c) < 0) std::swap(b, c);
      for (size_t j = 0; j < pts.size(); ++j) {
        if (static_cast<int>(j) == t[0] || static_cast<int>(j) == t[1] ||
            static_cast<int>(j) == t[2]) {
          continue;
        }
        EXPECT_LE(InCircle(a, b, c, pts[j]), 0)
            << "point " << j << " inside circumcircle of triangle";
      }
    }
  }
}

TEST(Delaunay, EulerFormulaForTriangulation) {
  // For a Delaunay triangulation of n points with h hull points:
  // triangles = 2n - 2 - h, edges = 3n - 3 - h.
  const std::vector<Vec2> pts = RandomPoints(80, 207);
  const Delaunay d(pts);
  const auto tris = d.Triangles();
  std::set<std::pair<int, int>> edges;
  for (const auto& t : tris) {
    for (int e = 0; e < 3; ++e) {
      int a = t[e], b = t[(e + 1) % 3];
      if (a > b) std::swap(a, b);
      edges.insert({a, b});
    }
  }
  const int n = static_cast<int>(pts.size());
  const int f = static_cast<int>(tris.size());
  const int e = static_cast<int>(edges.size());
  // Euler: n - e + (f + 1) = 2.
  EXPECT_EQ(n - e + f + 1, 2);
}

TEST(Delaunay, NeighborsAreSymmetric) {
  const std::vector<Vec2> pts = RandomPoints(50, 211);
  const Delaunay d(pts);
  for (int i = 0; i < 50; ++i) {
    for (int j : d.Neighbors(i)) {
      const auto& nj = d.Neighbors(j);
      EXPECT_NE(std::find(nj.begin(), nj.end(), i), nj.end());
    }
  }
}

TEST(Delaunay, DuplicatePointsRejected) {
  EXPECT_DEATH(Delaunay({{1, 1}, {2, 2}, {1, 1}}), "duplicate point");
}

TEST(Delaunay, GridPointsWithJitterWork) {
  // Near-degenerate input: an almost perfect grid (cocircular quadruples),
  // broken only by tiny jitter — stresses the InCircle fallback.
  Rng rng(213);
  std::vector<Vec2> pts;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      pts.push_back({i * 10.0 + rng.Uniform(-1e-7, 1e-7),
                     j * 10.0 + rng.Uniform(-1e-7, 1e-7)});
    }
  }
  const Delaunay d(pts);
  EXPECT_GT(d.Triangles().size(), 150u);  // 2n-2-h with n=100, h≈36
}

TEST(VoronoiDiagram, CellsPartitionTheBox) {
  const std::vector<Vec2> pts = RandomPoints(40, 217);
  const VoronoiDiagram vd = VoronoiDiagram::Build(pts, kBox);
  EXPECT_NEAR(vd.TotalArea(), kBox.Area(), 1e-6 * kBox.Area());
}

TEST(VoronoiDiagram, EveryCellContainsItsSite) {
  const std::vector<Vec2> pts = RandomPoints(40, 219);
  const VoronoiDiagram vd = VoronoiDiagram::Build(pts, kBox);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(vd.Cell(i).Contains(pts[i], 1e-9)) << i;
  }
}

TEST(VoronoiDiagram, MatchesDirectTopkRegionComputation) {
  // Delaunay-derived cells must equal the brute-force O(n) bisector cells.
  for (const auto& [name, pts] : OracleInputs()) {
    SCOPED_TRACE(name);
    const VoronoiDiagram vd = VoronoiDiagram::Build(pts, kBox);
    for (size_t i = 0; i < pts.size(); ++i) {
      std::vector<Vec2> others;
      for (size_t j = 0; j < pts.size(); ++j) {
        if (j != i) others.push_back(pts[j]);
      }
      const TopkRegion direct = ComputeTopkRegion(pts[i], others, kBox, 1);
      EXPECT_NEAR(vd.Cell(i).Area(), direct.area, 1e-7 * kBox.Area()) << i;
    }
  }
}

TEST(VoronoiDiagram, NearestNeighborConsistency) {
  // Any random point must lie in the cell of its true nearest site.
  const std::vector<Vec2> pts = RandomPoints(35, 227);
  const VoronoiDiagram vd = VoronoiDiagram::Build(pts, kBox);
  Rng rng(229);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    size_t nearest = 0;
    for (size_t i = 1; i < pts.size(); ++i) {
      if (SquaredDistance(q, pts[i]) < SquaredDistance(q, pts[nearest])) {
        nearest = i;
      }
    }
    EXPECT_TRUE(vd.Cell(nearest).Contains(q, 1e-7));
  }
}

TEST(VoronoiDiagram, ScalesToThousandsOfPoints) {
  const std::vector<Vec2> pts = RandomPoints(5000, 233);
  const VoronoiDiagram vd = VoronoiDiagram::Build(pts, kBox);
  EXPECT_EQ(vd.size(), 5000u);
  EXPECT_NEAR(vd.TotalArea(), kBox.Area(), 1e-5 * kBox.Area());
}

}  // namespace
}  // namespace lbsagg
