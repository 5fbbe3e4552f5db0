// The paper's flagship online experiment (Table 1): estimating the COUNT of
// Starbucks stores in the US through the Google Places interface, with the
// selection condition passed through to the service — plus the post-processed
// variant (restaurants open on Sundays) that the service cannot filter.

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

int main() {
  using namespace lbsagg;

  UsaOptions options;
  options.num_pois = 30000;
  const UsaScenario usa = BuildUsaScenario(options);

  // Google-Places-like service: k up to 60, 50 km coverage radius.
  ServerOptions sopts;
  sopts.max_k = 60;
  sopts.max_radius = 500.0;  // generous radius in km-scaled plane
  LbsServer server(usa.dataset.get(), sopts);

  CensusSampler sampler(&usa.census);
  Table table({"aggregate", "estimate", "truth", "rel.err", "queries"});

  // --- Pass-through condition: NAME = 'Starbucks' appended to each query.
  {
    const double truth =
        usa.dataset->GroundTruthCount(NameIs(usa.columns, "Starbucks"));
    LrClient client(&server, {.k = 10, .budget = 5000});
    client.SetPassThroughFilter(NameIs(usa.columns, "Starbucks"));
    LrAggOptions opts;
    opts.cell.monte_carlo = false;  // exact cells under the coverage radius
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(AggregateSpec::Count());
    RunEngine(&eng, {.budget = client.budget()});
    const RunResult run = EngineResults(eng)[0];
    table.AddRow({"COUNT(Starbucks in US)", Table::Num(run.final_estimate, 0),
                  Table::Num(truth, 0),
                  Table::Num(100.0 * RelativeError(run.final_estimate, truth),
                             1) + "%",
                  Table::Int(static_cast<long long>(run.queries))});
  }

  // --- Post-processed condition: open_sunday cannot be passed through.
  {
    const AggregateSpec spec = AggregateSpec::CountWhere(
        And(ColumnEquals(usa.columns.category, "restaurant"),
            ColumnIsTrue(usa.columns.open_sunday)),
        "COUNT(restaurants open Sundays)");
    const double truth = usa.dataset->GroundTruthCount([&](const Tuple& t) {
      return std::get<std::string>(t.values[usa.columns.category]) ==
                 "restaurant" &&
             std::get<bool>(t.values[usa.columns.open_sunday]);
    });
    LrClient client(&server, {.k = 10, .budget = 5000});
    LrAggOptions opts;
    opts.cell.monte_carlo = false;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(spec);
    RunEngine(&eng, {.budget = client.budget()});
    const RunResult run = EngineResults(eng)[0];
    table.AddRow({"COUNT(restaurants open Sun)",
                  Table::Num(run.final_estimate, 0), Table::Num(truth, 0),
                  Table::Num(100.0 * RelativeError(run.final_estimate, truth),
                             1) + "%",
                  Table::Int(static_cast<long long>(run.queries))});
  }

  std::printf("Selection-condition estimation over a simulated Google "
              "Places (LR-LBS), budget 5000 queries each:\n\n");
  table.Print();
  return 0;
}
