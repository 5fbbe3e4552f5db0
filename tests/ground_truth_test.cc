#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ground_truth.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

// The definitional top-h region of site i: the box clipped by the
// bisectors with every other site, without the oracle's pruning.
TopkRegion AllBisectorRegion(const std::vector<Vec2>& pts, size_t i, int h) {
  std::vector<Vec2> others;
  for (size_t j = 0; j < pts.size(); ++j) {
    if (j != i) others.push_back(pts[j]);
  }
  return ComputeTopkRegion(pts[i], others, kBox, h);
}

struct NamedPoints {
  std::string name;
  std::vector<Vec2> pts;
};

// Inputs for the exactness test below: uniform sets of several sizes, an
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

TEST(GroundTruth, MatchesDirectTopkRegionComputation) {
  // Certified-pruned cells must equal the O(n) all-bisector cells.
  for (const auto& [name, pts] : OracleInputs()) {
    SCOPED_TRACE(name);
    const GroundTruthOracle oracle(pts, kBox);
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_NEAR(oracle.TopkCellArea(static_cast<int>(i), 1),
                  AllBisectorRegion(pts, i, 1).area, 1e-7 * kBox.Area())
          << i;
    }
  }
}

TEST(GroundTruth, MatchesAllBisectorRegionForTop1) {
  const auto pts = RandomPoints(200, 401);
  const GroundTruthOracle oracle(pts, kBox);
  for (int i = 0; i < 200; i += 7) {
    EXPECT_NEAR(oracle.TopkCellArea(i, 1), AllBisectorRegion(pts, i, 1).area,
                1e-7 * kBox.Area())
        << i;
  }
}

TEST(GroundTruth, CellsPartitionTheBox) {
  const std::vector<Vec2> pts = RandomPoints(40, 217);
  const GroundTruthOracle oracle(pts, kBox);
  double total = 0.0;
  for (int i = 0; i < 40; ++i) total += oracle.TopkCellArea(i, 1);
  EXPECT_NEAR(total, kBox.Area(), 1e-6 * kBox.Area());
}

TEST(GroundTruth, EveryCellContainsItsSite) {
  const std::vector<Vec2> pts = RandomPoints(40, 219);
  const GroundTruthOracle oracle(pts, kBox);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(oracle.TopkCell(static_cast<int>(i), 1).Contains(pts[i], 1e-9))
        << i;
  }
}

TEST(GroundTruth, NearestNeighborConsistency) {
  // Any random point must lie in the top-1 cell of its true nearest site.
  const std::vector<Vec2> pts = RandomPoints(35, 227);
  const GroundTruthOracle oracle(pts, kBox);
  std::vector<TopkRegion> cells;
  for (size_t i = 0; i < pts.size(); ++i) {
    cells.push_back(oracle.TopkCell(static_cast<int>(i), 1));
  }
  Rng rng(229);
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    size_t nearest = 0;
    for (size_t i = 1; i < pts.size(); ++i) {
      if (SquaredDistance(q, pts[i]) < SquaredDistance(q, pts[nearest])) {
        nearest = i;
      }
    }
    EXPECT_TRUE(cells[nearest].Contains(q, 1e-7));
  }
}

TEST(GroundTruth, ScalesToThousandsOfPoints) {
  const std::vector<Vec2> pts = RandomPoints(5000, 233);
  const GroundTruthOracle oracle(pts, kBox);
  EXPECT_EQ(oracle.size(), 5000u);
  double total = 0.0;
  for (int i = 0; i < 5000; ++i) total += oracle.TopkCellArea(i, 1);
  EXPECT_NEAR(total, kBox.Area(), 1e-5 * kBox.Area());
}

TEST(GroundTruth, MatchesUnprunedComputation) {
  const auto pts = RandomPoints(60, 403);
  const GroundTruthOracle oracle(pts, kBox);
  for (int h : {1, 2, 3}) {
    for (int i = 0; i < 60; i += 11) {
      EXPECT_NEAR(oracle.TopkCellArea(i, h), AllBisectorRegion(pts, i, h).area,
                  1e-7 * kBox.Area())
          << "i=" << i << " h=" << h;
    }
  }
}

TEST(GroundTruth, TopkAreasSumToKTimesBox) {
  const auto pts = RandomPoints(40, 407);
  const GroundTruthOracle oracle(pts, kBox);
  for (int h : {1, 2}) {
    double total = 0.0;
    for (int i = 0; i < 40; ++i) total += oracle.TopkCellArea(i, h);
    EXPECT_NEAR(total, h * kBox.Area(), 1e-5 * kBox.Area());
  }
}

TEST(GroundTruth, InclusionProbabilityNormalized) {
  const auto pts = RandomPoints(30, 409);
  const GroundTruthOracle oracle(pts, kBox);
  double total = 0.0;
  for (int i = 0; i < 30; ++i) {
    total += oracle.UniformInclusionProbability(i, 1);
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(GroundTruth, ClusteredPointsStressCertifiedPruning) {
  // Two dense clusters + sparse outliers: cells span 5 orders of magnitude,
  // so the pruning radius must adapt per tuple.
  Rng rng(411);
  std::vector<Vec2> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({rng.Uniform(10, 11), rng.Uniform(10, 11)});
  }
  for (int i = 0; i < 150; ++i) {
    pts.push_back({rng.Uniform(80, 81), rng.Uniform(80, 81)});
  }
  pts.push_back({50, 95});
  const GroundTruthOracle oracle(pts, kBox);
  double total = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    const double area = oracle.TopkCellArea(static_cast<int>(i), 1);
    EXPECT_NEAR(area, AllBisectorRegion(pts, i, 1).area, 1e-6 * kBox.Area())
        << i;
    total += area;
  }
  EXPECT_NEAR(total, kBox.Area(), 1e-5 * kBox.Area());
}

}  // namespace
}  // namespace lbsagg
