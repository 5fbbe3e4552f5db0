// Ablation: the per-tuple cell-probability cache in LNR-LBS-AGG (the
// §3.2.2 history idea carried over to rank-only services). The service is
// static, so a tuple's inferred inclusion probability never changes; with
// the cache every repeated sample of a big-cell (rural) tuple is free.

#include <cstdio>

#include "common/bench_common.h"
#include "util/table.h"

int main() {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  ChinaOptions copts;
  copts.num_users = 300;
  const ChinaScenario china = BuildChinaScenario(copts);
  LbsServer server(china.dataset.get(), {.max_k = 1});
  CensusSampler sampler(&china.census);
  const uint64_t budget = 30000;
  const int runs = 8;

  Table table({"variant", "samples / run", "rel. error at budget"});
  for (const bool cache : {false, true}) {
    double total_rounds = 0.0;
    double total_err = 0.0;
    for (int r = 0; r < runs; ++r) {
      LnrClient client(&server, {.k = 1, .budget = budget});
      LnrAggOptions opts = DefaultLnrBenchOptions();
      opts.reuse_cell_probabilities = cache;
      opts.seed = 500 + r;
      engine::LnrCellResolver resolver(&client, &sampler, opts);
      const RunResult run =
          RunToBudget(&resolver, AggregateSpec::Count(), budget);
      total_rounds += static_cast<double>(run.trace.size()) / runs;
      total_err += RelativeError(run.final_estimate, 300.0) / runs;
    }
    table.AddRow({cache ? "probability cache ON" : "probability cache OFF",
                  Table::Num(total_rounds, 0), Table::Num(total_err, 3)});
  }

  std::printf("Ablation — LNR per-tuple probability cache at a budget of "
              "%llu queries (mean of %d runs)\n\n",
              static_cast<unsigned long long>(budget), runs);
  table.Print();
  MaybeWriteRunReport("ablation_lnr_cache", {});
  return 0;
}
