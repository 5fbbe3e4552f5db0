// Cross-cutting properties and failure injection over the full stack:
// invariants that hold across modules (partition properties of inferred
// cells, determinism, confidence-interval behaviour, degenerate datasets,
// obfuscated and budget-limited services).

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/ground_truth.h"
#include "core/history.h"
#include "core/lnr_cell.h"
#include "core/localize.h"
#include "core/lr_cell.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

Dataset UniformDataset(int n, uint64_t seed) {
  Dataset d(kBox, Schema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) d.Add(kBox.SamplePoint(rng), {});
  return d;
}

TEST(Property, LnrInferredTopkCellsPartitionKTimesBox) {
  // Σ_t |inferred V_k(t)| = k · |B| — the §2.2 partition identity must
  // survive the whole rank-only inference pipeline, not just the geometry.
  Dataset d = UniformDataset(8, 901);
  LbsServer server(&d, {.max_k = 2});
  LnrClient client(&server, {.k = 2});
  LnrCellOptions copts;
  copts.interior_quiet_rounds = 4;  // pay extra probes for a tight identity
  LnrCellComputer computer(&client, copts);
  double total = 0.0;
  for (int id = 0; id < 8; ++id) {
    const auto cell = computer.ComputeTopkCell(id, d.tuple(id).pos);
    ASSERT_TRUE(cell.has_value()) << id;
    total += cell->area;
  }
  EXPECT_NEAR(total, 2.0 * kBox.Area(), 0.01 * kBox.Area());
}

TEST(Property, LnrInferredTop1CellsPartitionBox) {
  Dataset d = UniformDataset(12, 907);
  LbsServer server(&d, {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  LnrCellComputer computer(&client);
  double total = 0.0;
  for (int id = 0; id < 12; ++id) {
    const auto cell = computer.ComputeTop1Cell(id, d.tuple(id).pos);
    ASSERT_TRUE(cell.has_value()) << id;
    total += cell->area;
  }
  EXPECT_NEAR(total, kBox.Area(), 0.005 * kBox.Area());
}

TEST(Property, EstimatorsAreDeterministicPerSeed) {
  const UsaScenario usa = BuildUsaScenario({.num_pois = 500});
  LbsServer server(usa.dataset.get(), {.max_k = 3});
  UniformSampler sampler(usa.dataset->box());
  double first = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    LrClient client(&server, {.k = 3});
    LrAggOptions opts;
    opts.seed = 777;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    const engine::AggregateQuery* count =
        eng.AddAggregate(AggregateSpec::Count());
    for (int i = 0; i < 40; ++i) eng.Step();
    if (rep == 0) {
      first = count->Estimate();
    } else {
      EXPECT_DOUBLE_EQ(count->Estimate(), first);
    }
  }
}

TEST(Property, ConfidenceIntervalsCoverTruth) {
  // §2.3: the normal-approximation CI from the sample variance (Bessel)
  // should cover the truth for most runs on a well-behaved (uniform)
  // dataset.
  Dataset d = UniformDataset(400, 911);
  LbsServer server(&d, {.max_k = 3});
  UniformSampler sampler(kBox);
  int covered = 0;
  const int runs = 20;
  for (int r = 0; r < runs; ++r) {
    LrClient client(&server, {.k = 3});
    LrAggOptions opts;
    opts.seed = 1000 + r;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    const engine::AggregateQuery* count =
        eng.AddAggregate(AggregateSpec::Count());
    for (int i = 0; i < 120; ++i) eng.Step();
    const double half = count->ConfidenceHalfWidth();
    if (std::abs(count->Estimate() - 400.0) <= half) ++covered;
  }
  // Nominal 95%; allow CLT slack on 120-sample runs.
  EXPECT_GE(covered, 14);
}

TEST(Property, LrAggUnbiasedOnObfuscatedService) {
  // Location obfuscation moves positions but not tuples: COUNT(*) over the
  // effective dataset equals COUNT(*) over the true dataset, and the LR
  // machinery must keep working on the obfuscated geometry.
  const UsaScenario usa = BuildUsaScenario({.num_pois = 600});
  ServerOptions sopts;
  sopts.max_k = 3;
  sopts.obfuscation_radius = 3.0;
  LbsServer server(usa.dataset.get(), sopts);
  CensusSampler sampler(&usa.census);
  double total = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    LrClient client(&server, {.k = 3});
    LrAggOptions opts;
    opts.seed = seed;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    const engine::AggregateQuery* count =
        eng.AddAggregate(AggregateSpec::Count());
    for (int i = 0; i < 150; ++i) eng.Step();
    total += count->Estimate();
  }
  EXPECT_NEAR(total / 3.0, 600.0, 0.25 * 600.0);
}

TEST(Property, CollinearTuplesHandled) {
  // Degenerate layout: all tuples on one line. Cells are slabs; both the
  // LR loop and the oracle must agree.
  Dataset d(kBox, Schema());
  for (int i = 0; i < 10; ++i) d.Add({5.0 + 10.0 * i, 50.0}, {});
  LbsServer server(&d, {.max_k = 2});
  LrClient client(&server, {.k = 2});
  GroundTruthOracle oracle(d.Positions(), kBox);
  History history;
  UniformSampler sampler(kBox);
  LrCellOptions opts;
  opts.monte_carlo = false;
  LrCellComputer computer(&client, &history, &sampler, opts);
  for (int id : {0, 4, 9}) {
    const TopkRegion cell = computer.ComputeExactCell(id, d.tuple(id).pos, 1);
    EXPECT_NEAR(cell.area, oracle.TopkCellArea(id, 1), 1e-6 * kBox.Area());
  }
}

TEST(Property, NearCocircularGridHandled) {
  // A jittered grid has many near-cocircular quadruples — the classic
  // robustness trap for incremental Voronoi code.
  Dataset d(kBox, Schema());
  Rng rng(919);
  for (int i = 1; i <= 9; ++i) {
    for (int j = 1; j <= 9; ++j) {
      d.Add({i * 10.0 + rng.Uniform(-1e-6, 1e-6),
             j * 10.0 + rng.Uniform(-1e-6, 1e-6)},
            {});
    }
  }
  LbsServer server(&d, {.max_k = 3});
  LrClient client(&server, {.k = 3});
  GroundTruthOracle oracle(d.Positions(), kBox);
  History history;
  UniformSampler sampler(kBox);
  LrCellOptions opts;
  opts.monte_carlo = false;
  LrCellComputer computer(&client, &history, &sampler, opts);
  for (int id : {0, 40, 80}) {
    const TopkRegion cell = computer.ComputeExactCell(id, d.tuple(id).pos, 2);
    EXPECT_NEAR(cell.area, oracle.TopkCellArea(id, 2), 1e-5 * kBox.Area());
  }
}

TEST(Property, RunnerStopsPromptlyOnBudget) {
  const UsaScenario usa = BuildUsaScenario({.num_pois = 400});
  LbsServer server(usa.dataset.get(), {.max_k = 3});
  UniformSampler sampler(usa.dataset->box());
  LrClient client(&server, {.k = 3, .budget = 500});
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  RunEngine(&eng, {.budget = 500});
  const RunResult run = EngineResults(eng)[0];
  EXPECT_GE(run.queries, 500u);
  EXPECT_LT(run.queries, 1500u);  // at most one sample of overshoot
  // The engine stays usable after the budget trips.
  eng.Step();
  EXPECT_GT(eng.queries_used(), run.queries);
}

TEST(Property, LocalizeWithPrecomputedCellSavesQueries) {
  Dataset d(kBox, Schema());
  d.Add({50, 50}, {});
  d.Add({80, 52}, {});
  d.Add({49, 81}, {});
  d.Add({18, 48}, {});
  d.Add({52, 19}, {});
  LbsServer server(&d, {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  LnrCellComputer computer(&client);
  const auto cell = computer.ComputeTop1Cell(0, {50, 50});
  ASSERT_TRUE(cell.has_value());

  Localizer localizer(&client);
  const uint64_t before = client.queries_used();
  const auto with_cell = localizer.LocateWithCell(0, *cell);
  const uint64_t reuse_cost = client.queries_used() - before;
  ASSERT_TRUE(with_cell.has_value());

  const uint64_t before_full = client.queries_used();
  const auto full = localizer.Locate(0, {50, 50});
  const uint64_t full_cost = client.queries_used() - before_full;
  ASSERT_TRUE(full.has_value());
  EXPECT_LT(reuse_cost, full_cost);
  EXPECT_NEAR(Distance(*with_cell, *full), 0.0, 1e-6);
}

TEST(Property, TrilaterationOnObfuscatedServiceRecoversEffectivePositions) {
  Dataset d = UniformDataset(100, 929);
  ServerOptions sopts;
  sopts.max_k = 5;
  sopts.obfuscation_radius = 2.0;
  LbsServer server(&d, sopts);
  TrilaterationClient client(&server, {.k = 3});
  Rng rng(931);
  for (int trial = 0; trial < 20; ++trial) {
    for (const LrClient::Item& item : client.Query(kBox.SamplePoint(rng))) {
      // The service reports distances to *effective* positions, so that is
      // what trilateration recovers — exactly like a real obfuscated app.
      EXPECT_NEAR(
          Distance(item.location, server.EffectivePosition(item.id)), 0.0,
          1e-6);
    }
  }
}

}  // namespace
}  // namespace lbsagg
