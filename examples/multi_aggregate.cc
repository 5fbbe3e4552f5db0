// Answering many aggregates from ONE query budget: the estimation engine
// (DESIGN.md §4.9) resolves each sampled tuple's appearance probability
// once, logs it as evidence, and lets any number of AggregateQuery
// consumers fold the same stream — COUNT, SUM and a *conditioned* AVG here,
// all for the price of a single LR-LBS-AGG run. A fourth consumer attaches
// mid-run and replays the log, ending bit-identical to one registered
// up front.
//
//   --trace=out.json   write the run's span tree (engine rounds, evidence
//                      commits, estimator cell computations, client
//                      queries) as Chrome trace_event JSON.
//   --report=out.json  write the RunReport: run meta + RunningStats, every
//                      layer's counters (engine.* included), and the
//                      engine's diagnostics as an "engine" section.
//                      Validated by tools/validate_report.py.

#include <cstdio>
#include <fstream>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/scenarios.h"

namespace {

bool WriteFileOrComplain(const std::string& path, const std::string& body,
                         const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  out << body << "\n";
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsagg;

  FlagParser flags;
  flags.AddString("trace", "", "write the run's Chrome trace_event JSON here");
  flags.AddString("report", "", "write the RunReport JSON here");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 1;
  }
  const std::string trace_path = flags.GetString("trace");
  const std::string report_path = flags.GetString("report");

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Tracer tracer;
  obs::Tracer* trace_sink = trace_path.empty() ? nullptr : &tracer;

  UsaOptions options;
  options.num_pois = 8000;
  const UsaScenario usa = BuildUsaScenario(options);
  LbsServer server(usa.dataset.get(),
                   {.max_k = 10, .stats_registry = &registry});
  UniformSampler sampler(usa.dataset->box());

  const int rating = usa.columns.rating;
  const ReturnedTuplePredicate is_restaurant =
      ColumnEquals(usa.columns.category, "restaurant");
  const TupleFilter truth_restaurant = [&](const Tuple& t) {
    return std::get<std::string>(t.values[usa.columns.category]) ==
           "restaurant";
  };
  const auto rating_of = [rating](const Tuple& t) {
    return std::get<double>(t.values[rating]);
  };
  const double truth_count = usa.dataset->GroundTruthCount(truth_restaurant);
  const double truth_sum = usa.dataset->GroundTruthSum(nullptr, rating_of);
  const double truth_avg =
      usa.dataset->GroundTruthSum(truth_restaurant, rating_of) / truth_count;

  // One client, one resolver, one budget — N answers.
  constexpr uint64_t kBudget = 6000;
  LrClient client(&server, {.k = 5, .budget = kBudget, .tracer = trace_sink});
  engine::LrCellResolver resolver(
      &client, &sampler, {.seed = 7, .tracer = trace_sink});
  engine::EstimationEngine eng(&resolver,
                               engine::EngineOptions{.tracer = trace_sink});
  auto* count = eng.AddAggregate(
      AggregateSpec::CountWhere(is_restaurant, "COUNT(restaurants)"));
  auto* sum = eng.AddAggregate(AggregateSpec::Sum(rating, "SUM(rating)"));
  auto* avg = eng.AddAggregate(
      AggregateSpec::AvgWhere(rating, is_restaurant, "AVG(rating|rest)"));

  // Spend half the budget, then attach a latecomer: it replays the evidence
  // log and its trace covers the whole run as if registered up front.
  while (eng.queries_used() < kBudget / 2) eng.Step();
  auto* late_count = eng.AddAggregate(
      AggregateSpec::CountWhere(is_restaurant, "COUNT(restaurants), late"));
  while (eng.queries_used() < kBudget) eng.Step();

  Table table({"aggregate", "estimate", "truth", "rel.err"});
  const auto add_row = [&](const engine::AggregateQuery* q, double truth) {
    table.AddRow({q->spec().name, Table::Num(q->Estimate(), 1),
                  Table::Num(truth, 1),
                  Table::Num(100.0 * RelativeError(q->Estimate(), truth), 1) +
                      "%"});
  };
  add_row(count, truth_count);
  add_row(sum, truth_sum);
  add_row(avg, truth_avg);
  add_row(late_count, truth_count);

  std::printf("Three aggregates (plus one registered mid-run) answered from "
              "ONE budget of %llu\ninterface queries — %zu evidence rounds, "
              "%zu observations, shared by all:\n\n",
              static_cast<unsigned long long>(kBudget),
              eng.evidence().num_rounds(), eng.evidence().num_observations());
  table.Print();

  std::printf("\nAVG folds the same evidence as the matching SUM and COUNT "
              "streams, so\nAVG = num/den holds exactly: %.12g = %.12g / "
              "%.12g\n",
              avg->Estimate(), avg->NumeratorMean(), avg->DenominatorMean());
  std::printf("late COUNT == up-front COUNT (replayed evidence): %.12g vs "
              "%.12g\n",
              late_count->Estimate(), count->Estimate());

  // The one-artifact view: run meta, engine.* counters, and the engine's
  // layered diagnostics as the "engine" section.
  RunResult run;
  run.trace = count->trace();
  run.final_estimate = count->Estimate();
  run.queries = eng.queries_used();
  obs::RunReport report = BuildRunReport("engine.lr", run, &registry);
  report.SetMeta("example", "multi_aggregate");
  report.SetMetaNum("budget", static_cast<double>(kBudget));
  report.SetMetaNum("aggregates", static_cast<double>(eng.num_aggregates()));
  report.SetMetaNum("truth", truth_count);
  report.AddJsonSection("engine", eng.diagnostics_json());

  int exit_code = 0;
  if (!trace_path.empty()) {
    if (!WriteFileOrComplain(trace_path, tracer.ToChromeTraceJson(), "trace"))
      exit_code = 1;
  }
  if (!report_path.empty()) {
    if (!WriteFileOrComplain(report_path, report.ToJson(), "run report"))
      exit_code = 1;
  }
  return exit_code;
}
