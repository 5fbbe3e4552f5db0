// §5.3 special interface constraints, end to end: a service with a maximum
// coverage radius (Google Maps: 50 km; Weibo: 11 km), one with
// "prominence" ranking (Google Places' default), and a distance-only
// service (Skout/Momo) estimated through transparent trilateration — all
// with the same LR-LBS-AGG estimator.

#include <cstdio>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "util/table.h"
#include "workload/scenarios.h"

namespace {

lbsagg::RunResult Estimate(lbsagg::LrClient& client,
                           const lbsagg::QuerySampler& sampler,
                           uint64_t budget) {
  using namespace lbsagg;
  LrAggOptions opts;
  opts.adaptive_h = false;
  opts.fixed_h = 1;
  opts.cell.monte_carlo = false;  // exact cells under coverage limits
  engine::LrCellResolver resolver(&client, &sampler, opts);
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  RunEngine(&eng, {.budget = budget});
  return EngineResults(eng)[0];
}

}  // namespace

int main() {
  using namespace lbsagg;

  UsaOptions uopts;
  uopts.num_pois = 8000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  CensusSampler sampler(&usa.census);
  const double truth = usa.dataset->GroundTruthCount();
  const uint64_t budget = 12000;

  Table table({"service constraint", "estimate", "truth", "rel.err",
               "queries"});
  auto add_row = [&](const char* label, const RunResult& run) {
    table.AddRow({label, Table::Num(run.final_estimate, 0),
                  Table::Num(truth, 0),
                  Table::Num(100.0 * RelativeError(run.final_estimate, truth),
                             1) + "%",
                  Table::Int(static_cast<long long>(run.queries))});
  };

  {
    // Plain distance-ranked service: the reference.
    LbsServer server(usa.dataset.get(), {.max_k = 5});
    LrClient client(&server, {.k = 5, .budget = budget});
    add_row("none (reference)", Estimate(client, sampler, budget));
  }
  {
    // Maximum coverage radius: distant queries return nothing; cells are
    // clipped by the d_max disc (empty answers contribute zero).
    ServerOptions sopts;
    sopts.max_k = 5;
    sopts.max_radius = 150.0;
    LbsServer server(usa.dataset.get(), sopts);
    LrClient client(&server, {.k = 5, .budget = budget});
    add_row("coverage radius 150 km", Estimate(client, sampler, budget));
  }
  {
    // Prominence ranking: popular POIs outrank nearer ones; the estimator
    // re-sorts the returned locations by distance (§5.3).
    ServerOptions sopts;
    sopts.max_k = 5;
    sopts.ranking = RankingMode::kProminence;
    sopts.prominence_column = "popularity";
    sopts.prominence_weight = 40.0;
    sopts.max_radius = 600.0;
    LbsServer server(usa.dataset.get(), sopts);
    LrClient client(&server, {.k = 5, .budget = budget});
    add_row("prominence ranking", Estimate(client, sampler, budget));
  }
  {
    // Distance-only interface: locations recovered by trilateration, three
    // extra queries per previously unseen tuple (§2.1).
    LbsServer server(usa.dataset.get(), {.max_k = 5});
    TrilaterationClient client(&server, {.k = 5, .budget = budget});
    add_row("distances only (trilaterated)",
            Estimate(client, sampler, budget));
  }

  std::printf("LR-LBS-AGG COUNT(*) under the paper's §5.3 interface "
              "constraints, budget %llu queries each:\n\n",
              static_cast<unsigned long long>(budget));
  table.Print();
  return 0;
}
