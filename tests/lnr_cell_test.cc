#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/ground_truth.h"
#include "core/lnr_cell.h"
#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

struct Fixture {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<LbsServer> server;
  std::unique_ptr<LnrClient> client;
  std::unique_ptr<GroundTruthOracle> oracle;

  Fixture(std::vector<Vec2> points, int k = 1) {
    dataset = std::make_unique<Dataset>(kBox, Schema());
    for (const Vec2& p : points) dataset->Add(p, {});
    server = std::make_unique<LbsServer>(dataset.get(),
                                         ServerOptions{.max_k = k});
    client = std::make_unique<LnrClient>(server.get(), ClientOptions{.k = k});
    oracle = std::make_unique<GroundTruthOracle>(dataset->Positions(), kBox);
  }
};

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

TEST(LnrCell, TwoTupleCellIsHalfBox) {
  Fixture f({{30, 50}, {70, 50}});
  LnrCellComputer computer(f.client.get());
  const auto cell = computer.ComputeTop1Cell(0, {30, 50});
  ASSERT_TRUE(cell.has_value());
  EXPECT_TRUE(cell->converged);
  EXPECT_NEAR(cell->area, kBox.Area() / 2.0, 1e-3 * kBox.Area());
}

TEST(LnrCell, WrongTupleAtQ0Rejected) {
  Fixture f({{30, 50}, {70, 50}});
  LnrCellComputer computer(f.client.get());
  EXPECT_FALSE(computer.ComputeTop1Cell(1, {30, 50}).has_value());
}

TEST(LnrCell, Top1CellMatchesOracleOnRandomData) {
  const auto pts = RandomPoints(40, 701);
  Fixture f(pts);
  LnrCellComputer computer(f.client.get());
  int checked = 0;
  for (int id : {0, 9, 21, 33}) {
    const auto cell = computer.ComputeTop1Cell(id, pts[id]);
    ASSERT_TRUE(cell.has_value()) << id;
    const double truth = f.oracle->TopkCellArea(id, 1);
    EXPECT_NEAR(cell->area, truth, 0.02 * truth + 1e-4 * kBox.Area()) << id;
    ++checked;
  }
  EXPECT_EQ(checked, 4);
}

TEST(LnrCell, CellAreaRatioObeysCorollary2) {
  // Corollary 2: ((d-ε)/d)² ≤ |V'|/|V| where d is the nearest-neighbor
  // distance and ε the maximum edge error. With our δ' the ratio must be
  // within a tight band around 1.
  const auto pts = RandomPoints(25, 703);
  Fixture f(pts);
  LnrCellOptions opts;
  opts.search.delta_fraction = 1e-9;
  opts.search.delta_prime_fraction = 1e-6;
  LnrCellComputer computer(f.client.get(), opts);
  for (int id : {2, 11, 17}) {
    const auto cell = computer.ComputeTop1Cell(id, pts[id]);
    ASSERT_TRUE(cell.has_value());
    const double truth = f.oracle->TopkCellArea(id, 1);
    const double ratio = cell->area / truth;
    EXPECT_GT(ratio, 0.99) << id;
    EXPECT_LT(ratio, 1.01) << id;
  }
}

TEST(LnrCell, EdgesCarryNeighborIdentity) {
  Fixture f({{50, 50}, {80, 50}, {50, 80}, {20, 50}, {50, 20}});
  LnrCellComputer computer(f.client.get());
  const auto cell = computer.ComputeTop1Cell(0, {50, 50});
  ASSERT_TRUE(cell.has_value());
  std::vector<int> neighbors;
  for (const EdgeEstimate& e : cell->edges) {
    if (!e.is_box_edge) neighbors.push_back(e.neighbor_id);
  }
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<int>{1, 2, 3, 4}));
}

TEST(LnrCell, CellTouchingBoxBoundary) {
  Fixture f({{5, 5}, {60, 60}});
  LnrCellComputer computer(f.client.get());
  const auto cell = computer.ComputeTop1Cell(0, {5, 5});
  ASSERT_TRUE(cell.has_value());
  const double truth = f.oracle->TopkCellArea(0, 1);
  EXPECT_NEAR(cell->area, truth, 0.01 * truth);
}

TEST(LnrCell, QueryCostScalesWithEdgesNotDatabase) {
  // Doubling the database barely changes the cell cost of a fixed tuple in
  // a stable neighborhood — the O(m log 1/ε) claim.
  Rng rng(707);
  std::vector<Vec2> base = RandomPoints(50, 709);
  base.push_back({50, 50});
  Fixture small(base);
  const int id_small = 50;

  std::vector<Vec2> big = base;
  // Add points far from (50,50)'s neighborhood.
  for (int i = 0; i < 400; ++i) {
    Vec2 p = kBox.SamplePoint(rng);
    while (Distance(p, {50, 50}) < 25.0) p = kBox.SamplePoint(rng);
    big.push_back(p);
  }
  Fixture large(big);

  LnrCellComputer c_small(small.client.get());
  LnrCellComputer c_large(large.client.get());
  const uint64_t b1 = small.client->queries_used();
  ASSERT_TRUE(c_small.ComputeTop1Cell(id_small, {50, 50}).has_value());
  const uint64_t cost_small = small.client->queries_used() - b1;
  const uint64_t b2 = large.client->queries_used();
  ASSERT_TRUE(c_large.ComputeTop1Cell(id_small, {50, 50}).has_value());
  const uint64_t cost_large = large.client->queries_used() - b2;
  EXPECT_LT(cost_large, 3 * cost_small + 200);
}

TEST(LnrCell, CoverageDiscDetectedFromChords) {
  // §5.3 over a rank-only interface: the tuple's position is unknown, but
  // three chord crossings pin down the d_max circle and the inferred cell
  // is clipped by it.
  Rng rng(721);
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i) pts.push_back(kBox.SamplePoint(rng));
  Dataset dataset(kBox, Schema());
  for (const Vec2& p : pts) dataset.Add(p, {});
  ServerOptions sopts;
  sopts.max_k = 1;
  sopts.max_radius = 8.0;
  LbsServer server(&dataset, sopts);
  LnrClient client(&server, {.k = 1});
  GroundTruthOracle oracle(pts, kBox);
  LnrCellComputer computer(&client);

  int checked = 0;
  for (int id = 0; id < 40 && checked < 3; ++id) {
    // Pick tuples whose unrestricted cell pokes beyond the disc, so chords
    // actually matter.
    const TopkRegion full = oracle.TopkCell(id, 1);
    double max_d = 0.0;
    for (const ConvexPolygon& piece : full.pieces) {
      max_d = std::max(max_d, piece.MaxDistanceFrom(pts[id]));
    }
    if (max_d < 10.0) continue;
    ++checked;

    const auto cell = computer.ComputeTop1Cell(id, pts[id]);
    ASSERT_TRUE(cell.has_value()) << id;
    const ConvexPolygon disc = InscribedCirclePolygon(pts[id], 8.0);
    double truth = 0.0;
    for (ConvexPolygon piece : full.pieces) {
      for (size_t e = 0; e < disc.size() && !piece.IsEmpty(); ++e) {
        const Vec2& a = disc.vertices()[e];
        const Vec2& b = disc.vertices()[(e + 1) % disc.size()];
        piece = piece.Clip(HalfPlane(Line::Through(b, a)));
      }
      truth += piece.Area();
    }
    EXPECT_NEAR(cell->area, truth, 0.05 * truth) << id;
  }
  EXPECT_EQ(checked, 3);
}

TEST(LnrCell, TopkCellOfTwoTuplesIsWholeBox) {
  Fixture f({{30, 50}, {70, 50}}, /*k=*/2);
  LnrCellComputer computer(f.client.get());
  const auto cell = computer.ComputeTopkCell(0, {30, 50});
  ASSERT_TRUE(cell.has_value());
  EXPECT_NEAR(cell->area, kBox.Area(), 0.01 * kBox.Area());
}

TEST(LnrCell, TopkCellMatchesOracle) {
  const auto pts = RandomPoints(20, 711);
  Fixture f(pts, /*k=*/2);
  LnrCellComputer computer(f.client.get());
  for (int id : {4, 13}) {
    const auto cell = computer.ComputeTopkCell(id, pts[id]);
    ASSERT_TRUE(cell.has_value()) << id;
    const double truth = f.oracle->TopkCellArea(id, 2);
    EXPECT_NEAR(cell->area, truth, 0.05 * truth + 1e-3 * kBox.Area()) << id;
  }
}

TEST(LnrCell, TopkCellK3MatchesOracle) {
  const auto pts = RandomPoints(16, 713);
  Fixture f(pts, /*k=*/3);
  LnrCellComputer computer(f.client.get());
  for (int id : {2, 9}) {
    const auto cell = computer.ComputeTopkCell(id, pts[id]);
    ASSERT_TRUE(cell.has_value()) << id;
    const double truth = f.oracle->TopkCellArea(id, 3);
    EXPECT_NEAR(cell->area, truth, 0.05 * truth + 1e-3 * kBox.Area()) << id;
  }
}

TEST(LnrCell, ConcaveTopkCellRecovered) {
  // The Figure 1 / Figure 9 situation: ring + off-center tuple gives a
  // concave top-2 cell; the level-set reconstruction must capture the
  // notch instead of settling on a convex sub-region.
  std::vector<Vec2> pts;
  const Vec2 center{50, 50};
  for (int i = 0; i < 5; ++i) {
    const double a = 2 * M_PI * i / 5;
    pts.push_back(center + Vec2{std::cos(a), std::sin(a)} * 20.0);
  }
  pts.push_back(center + Vec2{25.0, 3.0});  // focal tuple, id 5
  Fixture f(pts, /*k=*/2);
  LnrCellComputer computer(f.client.get());
  const auto cell = computer.ComputeTopkCell(5, pts[5]);
  ASSERT_TRUE(cell.has_value());
  const double truth = f.oracle->TopkCellArea(5, 2);
  EXPECT_NEAR(cell->area, truth, 0.05 * truth);
}

}  // namespace
}  // namespace lbsagg
