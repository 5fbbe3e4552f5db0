// Renders where LR-LBS-AGG actually spends its queries: the hidden tuples,
// their Voronoi cells (simulator-side knowledge, drawn for context), and
// every query location the estimator issued — random sample locations plus
// the Theorem-1 vertex probes that pin each sampled cell down.
//
// Output: lbsagg_queries.svg in the current directory.

#include <cstdio>

#include "core/aggregate.h"
#include "core/ground_truth.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "util/svg.h"
#include "workload/scenarios.h"

int main() {
  using namespace lbsagg;

  UsaOptions options;
  options.num_pois = 250;
  options.num_cities = 8;
  const UsaScenario usa = BuildUsaScenario(options);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  LrClient client(&server, {.k = 5});
  client.EnableQueryLog();
  CensusSampler sampler(&usa.census);

  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  for (int i = 0; i < 12; ++i) eng.Step();

  SvgCanvas canvas(usa.dataset->box(), 1400.0);
  // Context: the true decomposition (what the estimator is discovering),
  // each cell the oracle's exact top-1 cell.
  const GroundTruthOracle oracle(usa.dataset->Positions(), usa.dataset->box());
  for (size_t i = 0; i < oracle.size(); ++i) {
    for (const ConvexPolygon& piece :
         oracle.TopkCell(static_cast<int>(i), 1).pieces) {
      canvas.AddPolygon(piece, "none", "#c0c0c0", 0.6);
    }
  }
  for (const Tuple& t : usa.dataset->tuples()) {
    canvas.AddPoint(t.pos, 2.0, "#305080");
  }
  // The estimator's footprint.
  for (const Vec2& q : client.query_log()) {
    canvas.AddPoint(q, 1.6, "#d03020");
  }
  canvas.AddText({usa.dataset->box().lo.x + 30, usa.dataset->box().hi.y - 60},
                 "blue: hidden tuples / grey: true Voronoi cells / red: "
                 "queries issued by LR-LBS-AGG (12 samples)",
                 22.0);

  const char* path = "lbsagg_queries.svg";
  if (canvas.WriteFile(path)) {
    std::printf("Estimator issued %llu queries over 12 samples; rendered to "
                "%s\n",
                static_cast<unsigned long long>(client.queries_used()), path);
    std::printf("Note the clusters of red probes around each sampled tuple: "
                "the Theorem-1 loop querying cell vertices.\n");
  }
  return 0;
}
