// Multi-aggregate amortization (DESIGN.md §4.9): the engine's point is that
// one Horvitz–Thompson evidence stream answers any aggregate, so N
// aggregates share one query budget instead of paying it N times. This
// driver answers COUNT(restaurants), SUM(rating) and AVG(rating |
// restaurant) two ways at the same per-run budget:
//   - engine:  one LrCellResolver run, three AggregateQuery consumers;
//   - legacy:  three independent single-aggregate runs, one per aggregate.
// and prints accuracy plus total interface queries for each. The accuracy
// is comparable (both fold the same HT contributions); the legacy column
// pays ~3x the queries for it.

#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "util/table.h"

int main() {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  BenchConfig config;
  config.budget = 4000;

  UsaOptions uopts;
  uopts.num_pois = config.num_pois;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = config.k});
  UniformSampler sampler(usa.dataset->box());

  const int rating = usa.columns.rating;
  const ReturnedTuplePredicate is_restaurant =
      ColumnEquals(usa.columns.category, "restaurant");
  const std::vector<AggregateSpec> specs = {
      AggregateSpec::CountWhere(is_restaurant, "COUNT(restaurants)"),
      AggregateSpec::Sum(rating, "SUM(rating)"),
      AggregateSpec::AvgWhere(rating, is_restaurant, "AVG(rating|restaurant)"),
  };

  const TupleFilter truth_restaurant = CategoryIs(usa.columns, "restaurant");
  const auto rating_of = [rating](const Tuple& t) {
    return std::get<double>(t.values[rating]);
  };
  const std::vector<double> truths = {
      static_cast<double>(usa.dataset->GroundTruthCount(truth_restaurant)),
      usa.dataset->GroundTruthSum(nullptr, rating_of),
      usa.dataset->GroundTruthSum(truth_restaurant, rating_of) /
          usa.dataset->GroundTruthCount(truth_restaurant),
  };

  // --- Engine: one budget, three consumers ----------------------------------
  std::map<std::string, std::vector<RunResult>> engine_traces;
  std::vector<RunningStats> engine_err(specs.size());
  RunningStats engine_queries;
  for (int run = 0; run < config.runs; ++run) {
    const uint64_t seed = config.seed_base + run;
    LrClient client(&server, {.k = config.k});
    engine::LrCellResolver resolver(&client, &sampler, {.seed = seed});
    engine::EstimationEngine eng(&resolver);
    for (const AggregateSpec& spec : specs) eng.AddAggregate(spec);
    RunEngine(&eng, {.budget = config.budget});
    const std::vector<RunResult> results = EngineResults(eng);
    for (size_t i = 0; i < specs.size(); ++i) {
      engine_err[i].Add(RelativeError(results[i].final_estimate, truths[i]));
      engine_traces[specs[i].name].push_back(results[i]);
    }
    engine_queries.Add(static_cast<double>(eng.queries_used()));
  }

  // --- Legacy: one budget per aggregate -------------------------------------
  std::vector<RunningStats> legacy_err(specs.size());
  RunningStats legacy_queries;
  for (int run = 0; run < config.runs; ++run) {
    const uint64_t seed = config.seed_base + run;
    double total_queries = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
      LrClient client(&server, {.k = config.k});
      engine::LrCellResolver resolver(&client, &sampler, {.seed = seed});
      const RunResult r = RunToBudget(&resolver, specs[i], config.budget);
      legacy_err[i].Add(RelativeError(r.final_estimate, truths[i]));
      total_queries += static_cast<double>(r.queries);
    }
    legacy_queries.Add(total_queries);
  }

  std::printf(
      "Multi-aggregate amortization — %d POIs, budget %llu per run, "
      "%d runs\n\n",
      config.num_pois, (unsigned long long)config.budget, config.runs);

  Table table({"aggregate", "truth", "engine rel.err", "legacy rel.err"});
  for (size_t i = 0; i < specs.size(); ++i) {
    table.AddRow({specs[i].name, Table::Num(truths[i], 1),
                  Table::Num(engine_err[i].mean(), 4),
                  Table::Num(legacy_err[i].mean(), 4)});
  }
  table.Print();

  std::printf(
      "\nmean interface queries per run: engine %.0f (all %zu aggregates), "
      "legacy %.0f (%.0f per aggregate)\n",
      engine_queries.mean(), specs.size(), legacy_queries.mean(),
      legacy_queries.mean() / specs.size());
  std::printf("amortization factor: %.2fx\n",
              legacy_queries.mean() / engine_queries.mean());

  MaybeWriteRunReport("fig_multi_aggregate", engine_traces);
  return 0;
}
