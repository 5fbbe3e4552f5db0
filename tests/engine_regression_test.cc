// Adapter-vs-legacy regression: the pre-engine estimator monoliths produced
// a fixed bit pattern for a fixed-seed end-to-end run, captured here as a
// trace fingerprint. The thin adapters over the engine must reproduce it
// exactly — same rng draw order, same query order, same FP accumulation
// order, down to the last ulp.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/lr_agg.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// The exact computation of the pre-refactor baseline harness: three
// fixed-seed LR runs over the 6000-POI USA scenario with the census
// sampler, each trace folded (queries, estimate-bits) into one hash.
TEST(EngineRegression, LegacyTraceFingerprintIsBitIdentical) {
  UsaOptions uopts;
  uopts.num_pois = 6000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa.columns.category, "restaurant"), "COUNT(restaurants)");

  uint64_t hash = 0;
  for (uint64_t seed = 42; seed < 45; ++seed) {
    LrClient client(&server, {.k = 5, .budget = 4000});
    LrAggOptions opts;
    opts.seed = seed;
    LrAggEstimator est(&client, &sampler, spec, opts);
    const RunResult r = RunWithBudget(MakeHandle(&est), 4000);
    for (const TracePoint& tp : r.trace) {
      uint64_t bits;
      std::memcpy(&bits, &tp.estimate, sizeof bits);
      hash = Mix(hash, tp.queries);
      hash = Mix(hash, bits);
    }
  }
  // Captured from the monolith estimators at the commit before the engine
  // split. Any change here means the refactor altered observable behavior.
  EXPECT_EQ(hash, 0x8e13737b33817270ull);
}

// Paths the legacy fingerprint barely reaches. At the default λ0 over 99% of
// adaptive-h bounds stop at λ_2, so multi-level scans and rank-2+
// contributions are rare; a raised λ0 makes h >= 2 common. A position
// condition beside an AVG exercises the demand gate in front of the bound.
// Both aggregates share one evidence stream; their traces and the chosen-h
// histogram fold into one hash.
TEST(EngineRegression, LrMultiLevelTraceFingerprintIsBitIdentical) {
  UsaOptions uopts;
  uopts.num_pois = 6000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  const double mid_x = usa.dataset->box().Center().x;
  AggregateSpec west = AggregateSpec::Count();
  west.name = "COUNT(*|west)";
  west.position_condition = [mid_x](const Vec2& p) { return p.x < mid_x; };
  const AggregateSpec avg = AggregateSpec::AvgWhere(
      usa.columns.rating, ColumnEquals(usa.columns.category, "restaurant"),
      "AVG(rating|restaurant)");

  uint64_t hash = 0;
  size_t h_used[8] = {};
  for (uint64_t seed = 42; seed < 44; ++seed) {
    LrClient client(&server, {.k = 5, .budget = 3000});
    LrAggOptions opts;
    opts.seed = seed;
    opts.lambda0_fraction = 1e-4;  // 5x the default
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(west);
    eng.AddAggregate(avg);
    for (const RunResult& r : RunEngineWithBudget(&eng, 3000)) {
      for (const TracePoint& tp : r.trace) {
        uint64_t bits;
        std::memcpy(&bits, &tp.estimate, sizeof bits);
        hash = Mix(hash, tp.queries);
        hash = Mix(hash, bits);
      }
    }
    for (size_t h = 0; h < 8; ++h) {
      h_used[h] += resolver.diagnostics().h_used[h];
      hash = Mix(hash, resolver.diagnostics().h_used[h]);
    }
  }
  for (int h = 2; h <= 5; ++h) EXPECT_GT(h_used[h], 0u) << "h=" << h;
  // Captured before the adaptive-h bound was made area-only and
  // demand-gated: both changes must leave every estimate bit-identical.
  EXPECT_EQ(hash, 0x66acbd10b6239cf8ull);
}

}  // namespace
}  // namespace lbsagg
