// Quickstart: estimate the COUNT of a hidden spatial database by querying
// nothing but its restricted kNN interface.
//
// The example builds a synthetic "USA" POI database, stands up a simulated
// location-returned LBS in front of it, and runs Algorithm LR-LBS-AGG until
// a fixed query budget is exhausted — then compares against the ground
// truth, which a real client would not have.

#include <cstdio>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "workload/scenarios.h"

int main() {
  using namespace lbsagg;

  // 1. A hidden database: 20,000 POIs clustered into cities.
  UsaOptions options;
  options.num_pois = 20000;
  const UsaScenario usa = BuildUsaScenario(options);

  // 2. The service: a kNN interface returning at most 10 tuples per query,
  //    with locations (LR-LBS, like Google Maps).
  LbsServer server(usa.dataset.get(), {.max_k = 10});

  // 3. The restricted client — the ONLY access path the estimator gets.
  //    10,000 queries: Google Maps' default daily rate limit (§2.1).
  LrClient client(&server, {.k = 5, .budget = 10000});

  // 4. Query locations weighted by census population density (§5.2).
  CensusSampler sampler(&usa.census);

  // 5. Estimate COUNT(*) with Algorithm LR-LBS-AGG: the resolver turns
  //    sampled locations into cell probabilities, the engine folds them into
  //    the aggregate, and the run loop steps it to the budget.
  engine::LrCellResolver resolver(&client, &sampler, {});
  engine::EstimationEngine eng(&resolver);
  const engine::AggregateQuery* count = eng.AddAggregate(AggregateSpec::Count());
  RunEngine(&eng, {.budget = client.budget()});
  const RunResult run = EngineResults(eng)[0];

  const double truth = usa.dataset->GroundTruthCount();
  std::printf("LR-LBS-AGG estimate of COUNT(*)\n");
  std::printf("  queries spent : %llu\n",
              static_cast<unsigned long long>(run.queries));
  std::printf("  samples       : %zu\n", count->rounds());
  std::printf("  estimate      : %.0f  (95%% CI ±%.0f)\n", run.final_estimate,
              count->ConfidenceHalfWidth());
  std::printf("  ground truth  : %.0f\n", truth);
  std::printf("  relative error: %.1f%%\n",
              100.0 * RelativeError(run.final_estimate, truth));
  return 0;
}
