#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

UsaScenario SmallUsa(int n = 1200, uint64_t seed = 2015) {
  UsaOptions opts;
  opts.num_pois = n;
  opts.seed = seed;
  return BuildUsaScenario(opts);
}

// Algorithm LR-LBS-AGG on one aggregate: `rounds` engine rounds over
// `client`, then the estimate.
double LrEstimate(LrClient* client, const QuerySampler* sampler,
                  const AggregateSpec& spec, const LrAggOptions& opts,
                  int rounds) {
  engine::LrCellResolver resolver(client, sampler, opts);
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* query = eng.AddAggregate(spec);
  for (int i = 0; i < rounds; ++i) eng.Step();
  return query->Estimate();
}

TEST(LrAgg, CountConvergesToGroundTruth) {
  // Uniform sampling over clustered data is heavy-tailed (rural cells are
  // enormous — Figure 11), so a single-run check needs a generous band; the
  // tight accuracy checks live in UnbiasedAcrossRuns and the weighted test.
  const UsaScenario usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  UniformSampler sampler(usa.dataset->box());
  LrAggOptions opts;
  opts.seed = 99;
  EXPECT_NEAR(
      LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 600),
      1200.0, 0.5 * 1200.0);
}

TEST(LrAgg, UnbiasedAcrossRuns) {
  // The mean of many short independent runs must land on the ground truth
  // (each run's estimate is exactly unbiased, so the run-mean concentrates).
  const UsaScenario usa = SmallUsa(600);
  LbsServer server(usa.dataset.get(), {.max_k = 3});
  UniformSampler sampler(usa.dataset->box());
  RunningStats means;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    LrClient client(&server, {.k = 3});
    LrAggOptions opts;
    opts.seed = seed;
    means.Add(LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 60));
  }
  EXPECT_NEAR(means.mean(), 600.0, 3.0 * means.StandardError() + 15.0);
}

TEST(LrAgg, CountWithPassThroughCondition) {
  const UsaScenario usa = SmallUsa();
  const double truth =
      usa.dataset->GroundTruthCount(CategoryIs(usa.columns, "school"));
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  client.SetPassThroughFilter(CategoryIs(usa.columns, "school"));
  UniformSampler sampler(usa.dataset->box());
  LrAggOptions opts;
  opts.seed = 101;
  EXPECT_NEAR(
      LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 300),
      truth, 0.2 * truth);
}

TEST(LrAgg, CountWithPostProcessedCondition) {
  const UsaScenario usa = SmallUsa();
  const double truth = usa.dataset->GroundTruthCount(OpenSunday(usa.columns));
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  UniformSampler sampler(usa.dataset->box());
  LrAggOptions opts;
  opts.seed = 103;
  const double estimate = LrEstimate(
      &client, &sampler,
      AggregateSpec::CountWhere(ColumnIsTrue(usa.columns.open_sunday),
                                "COUNT(open_sunday)"),
      opts, 400);
  EXPECT_NEAR(estimate, truth, 0.2 * truth);
}

TEST(LrAgg, SumAggregate) {
  const UsaScenario usa = SmallUsa();
  const int enr = usa.columns.enrollment;
  const double truth = usa.dataset->GroundTruthSum(
      nullptr, [enr](const Tuple& t) { return std::get<double>(t.values[enr]); });
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  // SUM over a log-normal attribute is heavy-tailed; average a few seeds
  // under weighted sampling (the unbiasedness itself is covered by the
  // multi-run mean tests).
  double total = 0.0;
  for (uint64_t seed = 107; seed < 110; ++seed) {
    LrClient client(&server, {.k = 5});
    LrAggOptions opts;
    opts.seed = seed;
    total += LrEstimate(&client, &sampler,
                        AggregateSpec::Sum(enr, "SUM(enrollment)"), opts, 300);
  }
  EXPECT_NEAR(total / 3.0, truth, 0.3 * truth);
}

TEST(LrAgg, AvgAggregateAsRatio) {
  const UsaScenario usa = SmallUsa();
  const int rating = usa.columns.rating;
  const TupleFilter is_restaurant = CategoryIs(usa.columns, "restaurant");
  const double sum = usa.dataset->GroundTruthSum(
      is_restaurant,
      [rating](const Tuple& t) { return std::get<double>(t.values[rating]); });
  const double count = usa.dataset->GroundTruthCount(is_restaurant);
  const double truth = sum / count;

  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  client.SetPassThroughFilter(is_restaurant);
  UniformSampler sampler(usa.dataset->box());
  LrAggOptions opts;
  opts.seed = 109;
  const double estimate = LrEstimate(
      &client, &sampler, AggregateSpec::Avg(rating, "AVG(rating)"), opts, 150);
  // Ratio estimators converge fast: ratings are in [1,5].
  EXPECT_NEAR(estimate, truth, 0.08 * truth);
}

TEST(LrAgg, WeightedSamplingStaysUnbiased) {
  // §5.2: estimates stay unbiased under census-weighted sampling even
  // though the census only loosely tracks the tuples.
  const UsaScenario usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  CensusSampler sampler(&usa.census);
  LrAggOptions opts;
  opts.seed = 113;
  EXPECT_NEAR(
      LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 300),
      1200.0, 0.15 * 1200.0);
}

TEST(LrAgg, MaxRadiusEmptyResultsHandled) {
  // A tight coverage radius makes most random queries return empty; the
  // estimator must stay unbiased (empty => 0 contribution, p(t) sums < 1).
  UsaOptions uopts;
  uopts.num_pois = 400;
  const UsaScenario usa = BuildUsaScenario(uopts);
  ServerOptions sopts;
  sopts.max_k = 3;
  sopts.max_radius = 120.0;
  LbsServer server(usa.dataset.get(), sopts);
  LrClient client(&server, {.k = 3});
  UniformSampler sampler(usa.dataset->box());
  LrAggOptions opts;
  opts.seed = 127;
  // Monte Carlo's cover-circle argument assumes untruncated results near
  // the cell; keep exact mode under dmax.
  opts.cell.monte_carlo = false;
  EXPECT_NEAR(
      LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 500), 400.0,
      0.25 * 400.0);
}

TEST(LrAgg, AdaptiveHUsesMoreOfTheResult) {
  const UsaScenario usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());

  LrClient fixed_client(&server, {.k = 5});
  LrAggOptions fixed;
  fixed.adaptive_h = false;
  fixed.fixed_h = 1;
  fixed.seed = 131;

  LrClient adaptive_client(&server, {.k = 5});
  LrAggOptions adaptive;
  adaptive.adaptive_h = true;
  adaptive.seed = 131;

  // Both must be in the right ballpark; adaptive must actually run.
  EXPECT_NEAR(LrEstimate(&fixed_client, &sampler, AggregateSpec::Count(),
                         fixed, 120),
              1200.0, 0.35 * 1200.0);
  EXPECT_NEAR(LrEstimate(&adaptive_client, &sampler, AggregateSpec::Count(),
                         adaptive, 120),
              1200.0, 0.35 * 1200.0);
}

TEST(LrAgg, UnbiasedUnderProminenceRanking) {
  // §5.3: with "prominence" ranking the nearest tuple can be outranked by a
  // popular one; the estimator re-sorts by the returned distances, so the
  // estimate stays correct as long as the nearest neighbor is in the top-k.
  const UsaScenario usa = SmallUsa(800);
  ServerOptions sopts;
  sopts.max_k = 5;
  sopts.ranking = RankingMode::kProminence;
  sopts.prominence_column = "popularity";
  sopts.prominence_weight = 60.0;  // strong: reorders most answers
  sopts.max_radius = 600.0;
  LbsServer server(usa.dataset.get(), sopts);
  CensusSampler sampler(&usa.census);
  double total = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    LrClient client(&server, {.k = 5});
    LrAggOptions opts;
    opts.seed = seed;
    opts.adaptive_h = false;
    opts.fixed_h = 1;
    opts.cell.monte_carlo = false;  // exact cells under the coverage radius
    total += LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 200);
  }
  EXPECT_NEAR(total / 3.0, 800.0, 0.25 * 800.0);
}

TEST(LrAgg, WorksOverTrilaterationClient) {
  // A Skout/Momo-class service (ids + distances only) estimated with the
  // full LR pipeline through the trilaterating client.
  const UsaScenario usa = SmallUsa(600);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  TrilaterationClient client(&server, {.k = 5});
  LrAggOptions opts;
  opts.seed = 17;
  EXPECT_NEAR(
      LrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 200), 600.0,
      0.25 * 600.0);
}

TEST(LrAgg, TraceIsMonotoneInQueries) {
  const UsaScenario usa = SmallUsa(500);
  LbsServer server(usa.dataset.get(), {.max_k = 3});
  LrClient client(&server, {.k = 3});
  UniformSampler sampler(usa.dataset->box());
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 50; ++i) eng.Step();
  const auto& trace = count->trace();
  ASSERT_EQ(trace.size(), 50u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].queries, trace[i - 1].queries);
  }
}

TEST(LrAgg, DiagnosticsAccount) {
  const UsaScenario usa = SmallUsa(500);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  CensusSampler sampler(&usa.census);
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 50; ++i) eng.Step();
  const LrAggDiagnostics& d = resolver.diagnostics();
  EXPECT_EQ(d.rounds, 50u);
  EXPECT_GT(d.cells_exact + d.cells_monte_carlo, 0u);
  EXPECT_LE(d.cell_queries, client.queries_used());
  size_t h_total = 0;
  for (size_t h : d.h_used) h_total += h;
  EXPECT_EQ(h_total, d.cells_exact + d.cells_monte_carlo);
}

TEST(LrAgg, PositionConditionRestrictsRegion) {
  const UsaScenario usa = SmallUsa();
  const Box west({0, 0}, {2200, 2600});
  double truth = 0.0;
  for (const Tuple& t : usa.dataset->tuples()) {
    if (west.Contains(t.pos)) truth += 1.0;
  }
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  UniformSampler sampler(usa.dataset->box());
  AggregateSpec spec = AggregateSpec::Count();
  spec.position_condition = [west](const Vec2& p) {
    return west.Contains(p);
  };
  LrAggOptions opts;
  opts.seed = 137;
  EXPECT_NEAR(LrEstimate(&client, &sampler, spec, opts, 400), truth,
              0.2 * truth);
}

}  // namespace
}  // namespace lbsagg
