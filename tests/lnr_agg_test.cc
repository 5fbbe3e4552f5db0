#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "lbs/client.h"
#include "obs/metrics.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

ChinaScenario SmallChina(int n = 800, double male = 0.671) {
  ChinaOptions opts;
  opts.num_users = n;
  opts.male_fraction = male;
  return BuildChinaScenario(opts);
}

// Name -> value of every nonzero counter and histogram count on `registry`.
std::map<std::string, uint64_t> Tallies(const obs::MetricsRegistry& registry) {
  std::map<std::string, uint64_t> out;
  const obs::MetricsSnapshot snap = registry.Snapshot();
  for (const obs::CounterSample& c : snap.counters) {
    if (c.value != 0) out[c.name] = c.value;
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    if (h.count != 0) out[h.name] = h.count;
  }
  return out;
}

// Algorithm LNR-LBS-AGG on one aggregate: `rounds` engine rounds over
// `client`, then the estimate.
double LnrEstimate(LnrClient* client, const QuerySampler* sampler,
                   const AggregateSpec& spec, const LnrAggOptions& opts,
                   int rounds) {
  engine::LnrCellResolver resolver(client, sampler, opts);
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* query = eng.AddAggregate(spec);
  for (int i = 0; i < rounds; ++i) eng.Step();
  return query->Estimate();
}

TEST(LnrAgg, CountConvergesWithSmallBias) {
  // Census-weighted sampling (§5.2) tames the heavy tail of uniform
  // sampling over clustered users, so a single run converges tightly.
  const ChinaScenario china = SmallChina();
  LbsServer server(china.dataset.get(), {.max_k = 1});
  CensusSampler sampler(&china.census);
  // Average a few independent runs: even weighted sampling keeps a heavy
  // tail from the rural users.
  double total = 0.0;
  for (uint64_t seed = 71; seed < 74; ++seed) {
    LnrClient client(&server, {.k = 1});
    LnrAggOptions opts;
    opts.seed = seed;
    total += LnrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 150);
  }
  EXPECT_NEAR(total / 3.0, 800.0, 0.2 * 800.0);
}

TEST(LnrAgg, GenderRatioEstimation) {
  const ChinaScenario china = SmallChina(800, 0.671);
  const double males =
      china.dataset->GroundTruthCount(GenderIs(china.columns, "M"));
  LbsServer server(china.dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  CensusSampler sampler(&china.census);
  const int gender_col = client.schema().Require("gender");
  LnrAggOptions opts;
  opts.seed = 73;
  const double estimate = LnrEstimate(
      &client, &sampler,
      AggregateSpec::CountWhere(ColumnEquals(gender_col, "M"), "COUNT(male)"),
      opts, 250);
  EXPECT_NEAR(estimate, males, 0.25 * males);
}

TEST(LnrAgg, AvgViaRatioOfMeans) {
  // AVG over an attribute: male share as AVG(indicator).
  const ChinaScenario china = SmallChina(800, 0.671);
  LbsServer server(china.dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  CensusSampler sampler(&china.census);
  const int gender_col = client.schema().Require("gender");
  AggregateSpec male_count =
      AggregateSpec::CountWhere(ColumnEquals(gender_col, "M"), "COUNT(male)");
  LnrAggOptions opts;
  opts.seed = 79;
  LnrClient client2(&server, {.k = 1});
  const double ratio =
      LnrEstimate(&client, &sampler, male_count, opts, 200) /
      LnrEstimate(&client2, &sampler, AggregateSpec::Count(), opts, 200);
  EXPECT_NEAR(ratio, 0.671, 0.12);
}

TEST(LnrAgg, TopkCellsModeConverges) {
  const ChinaScenario china = SmallChina(400);
  LbsServer server(china.dataset.get(), {.max_k = 2});
  LnrClient client(&server, {.k = 2});
  CensusSampler sampler(&china.census);
  LnrAggOptions opts;
  opts.use_topk_cells = true;
  opts.seed = 83;
  EXPECT_NEAR(LnrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 80),
              400.0, 0.3 * 400.0);
}

TEST(LnrAgg, EmptyResultsUnderMaxRadius) {
  const ChinaScenario china = SmallChina(300);
  ServerOptions sopts;
  sopts.max_k = 1;
  sopts.max_radius = 150.0;  // Weibo-style coverage limit
  LbsServer server(china.dataset.get(), sopts);
  UniformSampler sampler(china.dataset->box());
  double total = 0.0;
  for (uint64_t seed = 89; seed < 92; ++seed) {
    LnrClient client(&server, {.k = 1});
    LnrAggOptions opts;
    opts.seed = seed;
    total += LnrEstimate(&client, &sampler, AggregateSpec::Count(), opts, 150);
  }
  // Still a valid estimate (empty answers contribute zero, Σp < 1; the
  // coverage disc is recovered from three chord crossings).
  EXPECT_NEAR(total / 3.0, 300.0, 0.4 * 300.0);
}

TEST(LnrAgg, PositionConditionViaLocalization) {
  // §4.3 in service of §2.3: a location-based selection condition over an
  // LNR service forces per-tuple localization before the condition can be
  // evaluated.
  const ChinaScenario china = SmallChina(120);
  const Box& box = china.dataset->box();
  const Box west(box.lo, {box.lo.x + box.width() / 2.0, box.hi.y});
  double truth = 0.0;
  for (const Tuple& t : china.dataset->tuples()) {
    if (west.Contains(t.pos)) truth += 1.0;
  }
  LbsServer server(china.dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  CensusSampler sampler(&china.census);
  AggregateSpec spec = AggregateSpec::Count();
  spec.position_condition = [west](const Vec2& p) {
    return west.Contains(p);
  };
  LnrAggOptions opts;
  opts.seed = 97;
  EXPECT_NEAR(LnrEstimate(&client, &sampler, spec, opts, 120), truth,
              0.35 * truth);
}

TEST(LnrAgg, PrivateRegistryLeavesDefaultPlaneUntouched) {
  // A position condition runs the localizer, whose cell inference and d2
  // binary searches must count on the resolver's plane like the rest of
  // the stack.
  const ChinaScenario china = SmallChina();
  const Box& box = china.dataset->box();
  const Box west(box.lo, {box.lo.x + box.width() / 2.0, box.hi.y});
  obs::MetricsRegistry registry;
  LbsServer server(china.dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1, .registry = &registry});
  CensusSampler sampler(&china.census);
  AggregateSpec spec = AggregateSpec::Count();
  spec.position_condition = [west](const Vec2& p) {
    return west.Contains(p);
  };
  LnrAggOptions opts;
  opts.registry = &registry;
  const auto before = Tallies(obs::MetricsRegistry::Default());
  engine::LnrCellResolver resolver(&client, &sampler, opts);
  engine::EstimationEngine eng(&resolver, {.registry = &registry});
  eng.AddAggregate(spec);
  for (int i = 0; i < 20; ++i) eng.Step();
  EXPECT_EQ(Tallies(obs::MetricsRegistry::Default()), before);
#ifndef LBSAGG_OBS_DISABLED
  EXPECT_GT(registry.GetCounter("estimator.binary_search.probes")->Value(),
            0u);
#endif
}

TEST(LnrAgg, DiagnosticsTrackCacheHits) {
  // Tiny dataset: tuples repeat quickly, so the cache must get hits.
  const ChinaScenario china = SmallChina(60);
  LbsServer server(china.dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  CensusSampler sampler(&china.census);
  engine::LnrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 120; ++i) eng.Step();
  const LnrAggDiagnostics& d = resolver.diagnostics();
  EXPECT_EQ(d.rounds, 120u);
  EXPECT_GT(d.cache_hits, 0u);
  EXPECT_LE(d.cells_inferred, 60u);
  EXPECT_LE(d.cells_inferred + d.cache_hits, 120u);
}

TEST(LnrAgg, TraceTracksQueries) {
  const ChinaScenario china = SmallChina(200);
  LbsServer server(china.dataset.get(), {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  UniformSampler sampler(china.dataset->box());
  engine::LnrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 20; ++i) eng.Step();
  ASSERT_EQ(count->trace().size(), 20u);
  EXPECT_EQ(count->trace().back().queries, client.queries_used());
}

}  // namespace
}  // namespace lbsagg
