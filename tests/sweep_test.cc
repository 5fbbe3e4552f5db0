// Parameterized correctness sweeps: the LR and LNR cell machinery against
// the ground-truth oracle across dataset sizes and h values, and the
// confidence-based stopping rule of the run loop.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/ground_truth.h"
#include "core/history.h"
#include "core/lnr_cell.h"
#include "core/lr_cell.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

std::unique_ptr<Dataset> RandomDataset(int n, uint64_t seed) {
  auto d = std::make_unique<Dataset>(kBox, Schema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) d->Add(kBox.SamplePoint(rng), {});
  return d;
}

// --- LR exact cells across (n, h) -------------------------------------------

class LrCellSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LrCellSweep, ExactCellMatchesOracle) {
  const auto [n, h] = GetParam();
  const std::unique_ptr<Dataset> dataset = RandomDataset(n, 1234 + n);
  LbsServer server(dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  GroundTruthOracle oracle(dataset->Positions(), kBox);
  History history;
  UniformSampler sampler(kBox);
  LrCellOptions opts;
  opts.monte_carlo = false;
  LrCellComputer computer(&client, &history, &sampler, opts);

  Rng rng(9 + h);
  for (int trial = 0; trial < 4; ++trial) {
    const int id = static_cast<int>(rng.UniformInt(n));
    const TopkRegion cell =
        computer.ComputeExactCell(id, dataset->tuple(id).pos, h);
    EXPECT_NEAR(cell.area, oracle.TopkCellArea(id, h), 1e-6 * kBox.Area())
        << "n=" << n << " h=" << h << " id=" << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndH, LrCellSweep,
    ::testing::Combine(::testing::Values(60, 200, 500),
                       ::testing::Values(1, 2, 3, 5)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_h" +
             std::to_string(std::get<1>(info.param));
    });

// --- LNR top-1 cells across n ------------------------------------------------

class LnrCellSweep : public ::testing::TestWithParam<int> {};

TEST_P(LnrCellSweep, InferredCellMatchesOracle) {
  const int n = GetParam();
  const std::unique_ptr<Dataset> dataset = RandomDataset(n, 4321 + n);
  LbsServer server(dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  GroundTruthOracle oracle(dataset->Positions(), kBox);
  LnrCellComputer computer(&client);

  Rng rng(17);
  for (int trial = 0; trial < 4; ++trial) {
    const int id = static_cast<int>(rng.UniformInt(n));
    const auto cell = computer.ComputeTop1Cell(id, dataset->tuple(id).pos);
    ASSERT_TRUE(cell.has_value());
    const double truth = oracle.TopkCellArea(id, 1);
    EXPECT_NEAR(cell->area, truth, 0.02 * truth + 1e-4 * kBox.Area())
        << "n=" << n << " id=" << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LnrCellSweep,
                         ::testing::Values(30, 100, 300),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// --- Confidence-based stopping ------------------------------------------------

TEST(ConfidenceStop, StopsOnceTargetReached) {
  const UsaScenario usa = BuildUsaScenario({.num_pois = 1000});
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  LrClient client(&server, {.k = 5});
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  RunEngine(&eng, {.budget = 50000, .target_ci = 0.2});
  const RunResult run = EngineResults(eng)[0];
  // Stopped by confidence, well before the budget.
  EXPECT_LT(run.queries, 50000u);
  EXPECT_LE(count->ConfidenceHalfWidth(), 0.2 * run.final_estimate + 1e-9);
  EXPECT_GE(count->rounds(), 30u);
}

TEST(ConfidenceStop, BudgetStillBounds) {
  const UsaScenario usa = BuildUsaScenario({.num_pois = 1000});
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());
  LrClient client(&server, {.k = 5});
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  // An unreachable 0.1% CI: the budget must end the run instead.
  RunEngine(&eng, {.budget = 2000, .target_ci = 0.001});
  const RunResult run = EngineResults(eng)[0];
  EXPECT_GE(run.queries, 2000u);
  EXPECT_LT(run.queries, 3000u);
}

TEST(ConfidenceStop, RefusesAnAvgFirstAggregate) {
  const UsaScenario usa = BuildUsaScenario({.num_pois = 200});
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());
  LrClient client(&server, {.k = 5});
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Avg(usa.columns.rating, "AVG(rating)"));
  // An AVG's half-width is its numerator's (SUM scale): the rule would
  // compare it with a ratio estimate and never stop.
  EXPECT_DEATH(RunEngine(&eng, {.budget = 100, .target_ci = 0.25}),
               "COUNT or SUM");
}

}  // namespace
}  // namespace lbsagg
