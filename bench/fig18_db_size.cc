// Figure 18: query cost to reach relative error 0.15 as the database grows
// (25% .. 100% of the POIs). Expected shape: nearly flat for all methods —
// a sampling approach's cost depends on the variance structure, not the
// database size — with only a mild rise from the denser Voronoi topology.
//
// The per-fraction scenarios (subsample + census grid + ground truth) are
// independent, so their construction fans out over worker threads. Each
// fraction owns a seed decoupled from the others (mixed from one base), so
// the subsamples no longer share a sequential RNG stream and the build is
// a pure function of the fraction for any thread count.

#include <cstdio>
#include <memory>
#include <thread>

#include "common/bench_common.h"
#include "geometry/loc_key.h"  // SplitMix64
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  BenchConfig config;
  config.num_pois = 8000;
  config.runs = 12;
  config.budget = 18000;
  if (!ApplyBenchFlags(argc, argv, &config)) return 1;
  const double target_error = 0.25;

  UsaOptions uopts;
  uopts.num_pois = config.num_pois;
  const UsaScenario usa = BuildUsaScenario(uopts);

  const std::vector<double> fractions = {0.25, 0.5, 0.75, 1.0};

  // One prebuilt scenario per fraction, constructed in parallel.
  struct SizedScenario {
    std::unique_ptr<Dataset> dataset;
    std::unique_ptr<CensusGrid> census;
    double truth = 0.0;
  };
  std::vector<SizedScenario> scenarios(fractions.size());
  {
    std::vector<std::thread> builders;
    builders.reserve(fractions.size());
    for (size_t i = 0; i < fractions.size(); ++i) {
      builders.emplace_back([&, i] {
        const double fraction = fractions[i];
        Rng rng(SplitMix64(777 ^ (0x9e3779b97f4a7c15ull * (i + 1))));
        SizedScenario& s = scenarios[i];
        s.dataset = std::make_unique<Dataset>(
            fraction < 1.0 ? usa.dataset->Subsample(fraction, rng)
                           : Dataset(*usa.dataset));
        // Census from the *visible* layout; the analyst can always build
        // one.
        Rng census_rng(1);
        s.census = std::make_unique<CensusGrid>(
            CensusGrid::FromPoints(s.dataset->box(), 40, 25,
                                   s.dataset->Positions(), 0.3, census_rng));
        s.truth =
            s.dataset->GroundTruthCount(CategoryIs(usa.columns, "school"));
      });
    }
    for (std::thread& t : builders) t.join();
  }

  Table table({"fraction of POIs", "LR-LBS-NNO", "LR-LBS-AGG",
               "LNR-LBS-AGG"});

  std::map<std::string, std::vector<RunResult>> all_traces;
  for (size_t i = 0; i < fractions.size(); ++i) {
    const double fraction = fractions[i];
    const SizedScenario& scenario = scenarios[i];
    LbsServer server(scenario.dataset.get(), {.max_k = config.k});
    CensusSampler sampler(scenario.census.get());

    const AggregateSpec spec = AggregateSpec::CountWhere(
        ColumnEquals(usa.columns.category, "school"), "COUNT(schools)");

    const auto traces = SweepEstimators(
        {
            MakeNnoSpec("LR-LBS-NNO", &server, spec, config.k),
            MakeLrSpec("LR-LBS-AGG", &server, &sampler, spec, config.k),
            MakeLnrSpec("LNR-LBS-AGG", &server, &sampler, spec, config.k,
                        DefaultLnrBenchOptions()),
        },
        config.runs, config.budget, config.seed_base);

    const std::string suffix =
        "@" + Table::Num(100.0 * fraction, 0) + "%";
    for (const auto& [name, runs] : traces) all_traces[name + suffix] = runs;

    std::vector<std::string> row = {Table::Num(100.0 * fraction, 0) + "%"};
    for (const char* name : {"LR-LBS-NNO", "LR-LBS-AGG", "LNR-LBS-AGG"}) {
      const ErrorCurve curve = ComputeErrorCurve(traces.at(name),
                                                 scenario.truth);
      const double cost = QueryCostForError(curve, target_error);
      if (curve.mean_rel_error.back() <= target_error ||
          cost < static_cast<double>(curve.checkpoints.back())) {
        row.push_back(Table::Int(static_cast<long long>(cost)));
      } else {
        row.push_back("> " + Table::Int(static_cast<long long>(config.budget)));
      }
    }
    table.AddRow(std::move(row));
  }

  std::printf("Figure 18 — query cost to reach relative error %.2f vs "
              "database size, COUNT(schools)\n\n", target_error);
  table.Print();
  MaybeWriteRunReport("fig18_db_size", all_traces);
  return 0;
}
