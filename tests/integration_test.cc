// End-to-end scenarios combining the full stack: workload generation,
// simulated services, both estimation algorithms, the baseline, budget
// accounting and the experiment runner — small-scale versions of the
// paper's §6 experiments.

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "engine/lr_resolver.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "util/stats.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

// One aggregate over `resolver`, stepped by the run loop to `budget`.
RunResult RunToBudget(engine::CellResolver* resolver,
                      const AggregateSpec& spec, uint64_t budget) {
  engine::EstimationEngine eng(resolver);
  eng.AddAggregate(spec);
  RunEngine(&eng, {.budget = budget});
  return EngineResults(eng)[0];
}

// One aggregate over `resolver`: `rounds` engine rounds, then the estimate.
double EstimateAfter(engine::CellResolver* resolver, const AggregateSpec& spec,
                     int rounds) {
  engine::EstimationEngine eng(resolver);
  const engine::AggregateQuery* query = eng.AddAggregate(spec);
  for (int i = 0; i < rounds; ++i) eng.Step();
  return query->Estimate();
}

TEST(Integration, LrBeatsNnoAtEqualBudget) {
  // Figure 12/14 shape: at the same query budget, LR-LBS-AGG's mean
  // relative error is below LR-LBS-NNO's.
  UsaOptions uopts;
  uopts.num_pois = 1000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());
  const double truth = 1000.0;
  const uint64_t budget = 4000;

  std::vector<RunResult> lr_runs, nno_runs;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    LrClient lr_client(&server, {.k = 5, .budget = budget});
    LrAggOptions lr_opts;
    lr_opts.seed = seed;
    engine::LrCellResolver lr(&lr_client, &sampler, lr_opts);
    lr_runs.push_back(RunToBudget(&lr, AggregateSpec::Count(), budget));

    LrClient nno_client(&server, {.k = 5, .budget = budget});
    NnoOptions nno_opts;
    nno_opts.seed = seed;
    engine::NnoProbeResolver nno(&nno_client, nno_opts);
    nno_runs.push_back(RunToBudget(&nno, AggregateSpec::Count(), budget));
  }
  const ErrorCurve lr_curve = ComputeErrorCurve(lr_runs, truth, 10);
  const ErrorCurve nno_curve = ComputeErrorCurve(nno_runs, truth, 10);
  EXPECT_LT(lr_curve.mean_rel_error.back(), nno_curve.mean_rel_error.back());
}

TEST(Integration, StarbucksPassThroughPipeline) {
  // Table-1 scenario: COUNT(name = Starbucks) with the condition passed
  // through to the service.
  UsaOptions uopts;
  uopts.num_pois = 3000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  const double truth =
      usa.dataset->GroundTruthCount(NameIs(usa.columns, "Starbucks"));
  ASSERT_GT(truth, 20);

  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5, .budget = 6000});
  client.SetPassThroughFilter(NameIs(usa.columns, "Starbucks"));
  CensusSampler sampler(&usa.census);
  LrAggOptions opts;
  opts.seed = 5;
  engine::LrCellResolver resolver(&client, &sampler, opts);
  const RunResult run = RunToBudget(&resolver, AggregateSpec::Count(), 6000);
  EXPECT_NEAR(run.final_estimate, truth, 0.3 * truth);
}

TEST(Integration, WeChatGenderRatioPipeline) {
  // Table-1 scenario: gender ratio over an LNR service with k = 50-style
  // interface (scaled down).
  ChinaOptions copts;
  copts.num_users = 700;
  copts.male_fraction = 0.671;
  const ChinaScenario china = BuildChinaScenario(copts);
  LbsServer server(china.dataset.get(), {.max_k = 5});
  LnrClient male_client(&server, {.k = 5});
  LnrClient all_client(&server, {.k = 5});
  CensusSampler sampler(&china.census);
  const int gender_col = male_client.schema().Require("gender");

  LnrAggOptions opts;
  opts.seed = 7;
  engine::LnrCellResolver male(&male_client, &sampler, opts);
  engine::LnrCellResolver all(&all_client, &sampler, opts);
  const double ratio =
      EstimateAfter(&male,
                    AggregateSpec::CountWhere(ColumnEquals(gender_col, "M"),
                                              "COUNT(male)"),
                    150) /
      EstimateAfter(&all, AggregateSpec::Count(), 150);
  EXPECT_NEAR(ratio, 0.671, 0.15);
}

TEST(Integration, SharedHistoryAcrossSamplesReducesMarginalCost) {
  // §3.2.2 at the estimator level: later samples must get cheaper as the
  // history fills in.
  UsaOptions uopts;
  uopts.num_pois = 1500;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  UniformSampler sampler(usa.dataset->box());
  // Fixed h = 1 isolates the history effect: adaptive-h deliberately spends
  // more queries per sample once history enables larger h.
  LrAggOptions opts;
  opts.adaptive_h = false;
  opts.fixed_h = 1;
  engine::LrCellResolver resolver(&client, &sampler, opts);
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  uint64_t first10 = 0, last10 = 0;
  for (int i = 0; i < 10; ++i) eng.Step();
  first10 = client.queries_used();
  for (int i = 0; i < 90; ++i) eng.Step();
  const uint64_t before_last = client.queries_used();
  for (int i = 0; i < 10; ++i) eng.Step();
  last10 = client.queries_used() - before_last;
  EXPECT_LT(last10, first10);
}

TEST(Integration, BudgetIsSoftButBounding) {
  UsaOptions uopts;
  uopts.num_pois = 500;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 3});
  LrClient client(&server, {.k = 3, .budget = 200});
  UniformSampler sampler(usa.dataset->box());
  engine::LrCellResolver resolver(&client, &sampler, {});
  const RunResult run =
      RunToBudget(&resolver, AggregateSpec::Count(), client.budget());
  EXPECT_GE(run.queries, 200u);
  // Soft overshoot is bounded by one sample's worth of queries.
  EXPECT_LT(run.queries, 200u + 500u);
  EXPECT_FALSE(client.HasBudget());
}

TEST(Integration, SubsampledDatabasesGiveProportionalCounts) {
  // Figure 18's mechanism: estimates track the subsampled ground truth.
  UsaOptions uopts;
  uopts.num_pois = 1600;
  const UsaScenario usa = BuildUsaScenario(uopts);
  Rng rng(11);
  for (double fraction : {0.25, 0.5}) {
    Dataset sub = usa.dataset->Subsample(fraction, rng);
    LbsServer server(&sub, {.max_k = 5});
    LrClient client(&server, {.k = 5});
    UniformSampler sampler(sub.box());
    LrAggOptions opts;
    opts.seed = 13;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    EXPECT_NEAR(EstimateAfter(&resolver, AggregateSpec::Count(), 200),
                sub.GroundTruthCount(), 0.25 * sub.GroundTruthCount())
        << fraction;
  }
}

}  // namespace
}  // namespace lbsagg
