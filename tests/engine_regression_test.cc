// Engine-vs-legacy regression: the pre-engine estimator monoliths produced
// a fixed bit pattern for a fixed-seed end-to-end run, captured here as a
// trace fingerprint. A resolver + engine run through the run loop must
// reproduce it exactly — same rng draw order, same query order, same FP
// accumulation order, down to the last ulp.

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
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
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(spec);
    RunEngine(&eng, {.budget = 4000});
    const RunResult r = EngineResults(eng)[0];
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
    RunEngine(&eng, {.budget = 3000});
    for (const RunResult& r : EngineResults(eng)) {
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

// LNR's cell inference runs the same clip step as LR (level regions over
// inferred bisectors) and probes the same BoundaryVertices(), and no other
// case pins its bits. Two legs over a small WeChat-like scenario at the
// aggregate-grade precision of the benchmark: COUNT(*) beside an AVG behind
// a position condition, so §4.3 localization runs; and top-k cells (k = 2),
// whose level regions split at the inner level and clip once at the last.
// Each leg folds (queries, estimate-bits) of every trace point and the
// resolver's cell counts into one hash.
TEST(EngineRegression, LnrTraceFingerprintIsBitIdentical) {
  ChinaOptions copts;
  copts.num_users = 1500;
  const ChinaScenario china = BuildChinaScenario(copts);
  LbsServer server(china.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&china.census);
  const double mid_x = china.dataset->box().Center().x;
  AggregateSpec west_avg =
      AggregateSpec::Avg(china.columns.male_indicator, "AVG(male|west)");
  west_avg.position_condition = [mid_x](const Vec2& p) { return p.x < mid_x; };

  LnrAggOptions base;
  base.cell.search.delta_fraction = 1e-6;
  base.cell.search.delta_prime_fraction = 1e-4;
  base.localize.cell.search = base.cell.search;

  struct Leg {
    int k;
    bool topk_cells;
    uint64_t seed;
    uint64_t budget;
    std::vector<AggregateSpec> specs;
  };
  const Leg legs[] = {
      {5, false, 61, 30000, {AggregateSpec::Count(), west_avg}},
      {2, true, 62, 6000, {AggregateSpec::Count()}},
  };
  uint64_t hash = 0;
  for (const Leg& leg : legs) {
    LnrClient client(&server, {.k = leg.k, .budget = leg.budget});
    LnrAggOptions opts = base;
    opts.use_topk_cells = leg.topk_cells;
    opts.seed = leg.seed;
    engine::LnrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    for (const AggregateSpec& spec : leg.specs) eng.AddAggregate(spec);
    RunEngine(&eng, {.budget = leg.budget});
    for (const RunResult& r : EngineResults(eng)) {
      for (const TracePoint& tp : r.trace) {
        uint64_t bits;
        std::memcpy(&bits, &tp.estimate, sizeof bits);
        hash = Mix(hash, tp.queries);
        hash = Mix(hash, bits);
      }
    }
    hash = Mix(hash, resolver.diagnostics().cells_inferred);
    hash = Mix(hash, resolver.diagnostics().cache_hits);
  }
  // Captured before the clip step stopped building the positive half of a
  // last-level split and BoundaryVertices() stopped hashing its keys.
  EXPECT_EQ(hash, 0x870c49fc01a6b0b4ull) << std::hex << hash;
}

}  // namespace
}  // namespace lbsagg
