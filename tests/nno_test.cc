#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "engine/engine.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

TEST(Nno, RoughlyConvergesOnCount) {
  UsaOptions uopts;
  uopts.num_pois = 800;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  NnoOptions opts;
  opts.seed = 21;
  engine::NnoProbeResolver resolver(&client, opts);
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 600; ++i) eng.Step();
  // The baseline carries the inherent E[1/p̂] ≥ 1/p bias the paper
  // criticizes — on a small clustered dataset it lands within a factor of
  // ~2, typically above the truth.
  EXPECT_GT(count->Estimate(), 0.5 * 800.0);
  EXPECT_LT(count->Estimate(), 2.5 * 800.0);
}

TEST(Nno, CostsManyMoreQueriesPerSampleThanLrAgg) {
  UsaOptions uopts;
  uopts.num_pois = 800;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  engine::NnoProbeResolver resolver(&client, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 20; ++i) eng.Step();
  // Each sample needs ring growth + area probes.
  EXPECT_GT(client.queries_used(), 20u * 10u);
}

TEST(Nno, EmptyResultsUnderMaxRadius) {
  UsaOptions uopts;
  uopts.num_pois = 100;
  const UsaScenario usa = BuildUsaScenario(uopts);
  ServerOptions sopts;
  sopts.max_k = 3;
  sopts.max_radius = 50.0;
  LbsServer server(usa.dataset.get(), sopts);
  LrClient client(&server, {.k = 3});
  engine::NnoProbeResolver resolver(&client, {});
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 50; ++i) eng.Step();  // must not crash or loop
  EXPECT_GE(count->Estimate(), 0.0);
}

TEST(Nno, TraceGrows) {
  UsaOptions uopts;
  uopts.num_pois = 300;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  engine::NnoProbeResolver resolver(&client, {});
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 10; ++i) eng.Step();
  EXPECT_EQ(count->trace().size(), 10u);
  EXPECT_EQ(count->rounds(), 10u);
}

}  // namespace
}  // namespace lbsagg
