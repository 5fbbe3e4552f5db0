// Table 1: the paper's online demonstrations, run against the simulated
// services at the paper's query budgets. Unlike the paper we *can* print
// the ground truth next to every estimate.

#include <cstdio>

#include "common/bench_common.h"
#include "util/table.h"

int main() {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  Table table({"LBS", "aggregate", "estimate", "truth", "budget"});

  // --- Google-Places-like LR service over the USA scenario. ---
  {
    UsaOptions uopts;
    uopts.num_pois = 30000;
    const UsaScenario usa = BuildUsaScenario(uopts);
    ServerOptions sopts;
    sopts.max_k = 60;
    sopts.max_radius = 500.0;
    LbsServer server(usa.dataset.get(), sopts);
    CensusSampler sampler(&usa.census);

    {
      const double truth =
          usa.dataset->GroundTruthCount(NameIs(usa.columns, "Starbucks"));
      LrClient client(&server, {.k = 10, .budget = 5000});
      client.SetPassThroughFilter(NameIs(usa.columns, "Starbucks"));
      LrAggOptions opts;
      opts.cell.monte_carlo = false;
      engine::LrCellResolver resolver(&client, &sampler, opts);
      const RunResult run =
          RunToBudget(&resolver, AggregateSpec::Count(), 5000);
      table.AddRow({"Google-Places-like", "COUNT(Starbucks in US)",
                    Table::Num(run.final_estimate, 0), Table::Num(truth, 0),
                    "5000"});
    }
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
      const RunResult run = RunToBudget(&resolver, spec, 5000);
      table.AddRow({"Google-Places-like", "COUNT(rest. open Sundays)",
                    Table::Num(run.final_estimate, 0), Table::Num(truth, 0),
                    "5000"});
    }
  }

  // --- WeChat-like and Weibo-like LNR services. ---
  for (const auto& [label, male_fraction, seed] :
       {std::tuple{"WeChat-like", 0.671, uint64_t{101}},
        std::tuple{"Weibo-like", 0.504, uint64_t{202}}}) {
    ChinaOptions copts;
    copts.num_users = 15000;
    copts.male_fraction = male_fraction;
    copts.seed = seed;
    const ChinaScenario china = BuildChinaScenario(copts);
    LbsServer server(china.dataset.get(), {.max_k = 10});
    CensusSampler sampler(&china.census);
    LnrAggOptions opts = DefaultLnrBenchOptions();

    double count_estimate = 0.0;
    double num = 0.0, den = 0.0;
    const int runs = 10;
    for (int r = 0; r < runs; ++r) {
      LnrClient count_client(&server, {.k = 10, .budget = 10000});
      LnrAggOptions o = opts;
      o.seed = 1000 + r;
      engine::LnrCellResolver count_resolver(&count_client, &sampler, o);
      const RunResult count =
          RunToBudget(&count_resolver, AggregateSpec::Count(), 10000);
      count_estimate += count.final_estimate / runs;

      LnrClient ratio_client(&server, {.k = 10, .budget = 10000});
      engine::LnrCellResolver ratio_resolver(&ratio_client, &sampler, o);
      engine::EstimationEngine ratio_eng(&ratio_resolver);
      const engine::AggregateQuery* ratio = ratio_eng.AddAggregate(
          AggregateSpec::Avg(china.columns.male_indicator, "AVG(male)"));
      RunEngine(&ratio_eng, {.budget = 10000});
      num += ratio->NumeratorMean();
      den += ratio->DenominatorMean();
    }
    const double share = den > 0 ? num / den : 0.0;
    table.AddRow({label, "COUNT(users)", Table::Num(count_estimate, 0),
                  Table::Num(china.dataset->GroundTruthCount(), 0),
                  "10x10000"});
    table.AddRow({label, "gender ratio (M:F)",
                  Table::Num(100 * share, 1) + ":" +
                      Table::Num(100 * (1 - share), 1),
                  Table::Num(100 * male_fraction, 1) + ":" +
                      Table::Num(100 * (1 - male_fraction), 1),
                  "10x10000"});
  }

  std::printf("Table 1 — online-demonstration aggregates over the simulated "
              "services\n\n");
  table.Print();
  MaybeWriteRunReport("table1_online", {});
  return 0;
}
