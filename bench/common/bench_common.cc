#include "common/bench_common.h"

#include <cstdio>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "obs/report.h"
#include "util/flags.h"
#include "util/table.h"

namespace lbsagg {
namespace bench {

bool ApplyBenchFlags(int argc, const char* const* argv, BenchConfig* config) {
  FlagParser flags;
  flags.AddInt("runs", config->runs, "independent repetitions per series");
  flags.AddInt("budget", static_cast<int64_t>(config->budget),
               "query budget per run");
  flags.AddInt("pois", config->num_pois, "scenario size in POIs");
  if (!flags.Parse(argc, argv) || !flags.positional().empty()) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return false;
  }
  config->runs = static_cast<int>(flags.GetInt("runs"));
  config->budget = static_cast<uint64_t>(flags.GetInt("budget"));
  config->num_pois = static_cast<int>(flags.GetInt("pois"));
  return true;
}

std::map<std::string, std::vector<RunResult>> SweepEstimators(
    const std::vector<EstimatorSpec>& specs, int runs, uint64_t budget,
    uint64_t seed_base, unsigned num_threads) {
  // Flatten (spec, run) into one task list and fan out over threads. Each
  // task owns its estimator and client; results land in preallocated slots,
  // so no synchronization beyond the atomic task counter is needed.
  std::map<std::string, std::vector<RunResult>> traces;
  struct Task {
    const EstimatorSpec* spec;
    RunResult* slot;
    uint64_t seed;
  };
  std::vector<Task> tasks;
  for (const EstimatorSpec& spec : specs) {
    std::vector<RunResult>& results = traces[spec.name];
    results.resize(runs);
    for (int r = 0; r < runs; ++r) {
      tasks.push_back({&spec, &results[r], seed_base + r});
    }
  }

  std::atomic<size_t> next{0};
  auto worker = [&] {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      *tasks[i].slot = tasks[i].spec->run(tasks[i].seed, budget);
    }
  };
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const unsigned n_threads =
      std::min<unsigned>(num_threads, static_cast<unsigned>(tasks.size()));
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  return traces;
}

void PrintCostVersusErrorTable(
    const std::string& title,
    const std::map<std::string, std::vector<RunResult>>& traces, double truth,
    const std::vector<double>& error_targets) {
  std::printf("%s\n", title.c_str());

  std::vector<std::string> headers = {"relative error"};
  std::vector<ErrorCurve> curves;
  std::vector<uint64_t> budgets;
  for (const auto& [name, runs] : traces) {
    headers.push_back(name);
    curves.push_back(ComputeErrorCurve(runs, truth));
    uint64_t max_cost = 0;
    for (const RunResult& r : runs) max_cost = std::max(max_cost, r.queries);
    budgets.push_back(max_cost);
  }

  Table table(headers);
  for (double target : error_targets) {
    std::vector<std::string> row = {Table::Num(target, 2)};
    for (size_t i = 0; i < curves.size(); ++i) {
      const double cost = QueryCostForError(curves[i], target);
      const bool reached =
          curves[i].mean_rel_error.back() <= target ||
          cost < static_cast<double>(curves[i].checkpoints.back());
      if (reached) {
        row.push_back(Table::Int(static_cast<long long>(cost)));
      } else {
        row.push_back("> " + Table::Int(static_cast<long long>(budgets[i])));
      }
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

void PrintErrorVersusCostTable(
    const std::string& title,
    const std::map<std::string, std::vector<RunResult>>& traces, double truth,
    int checkpoints) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> headers = {"queries"};
  std::vector<ErrorCurve> curves;
  for (const auto& [name, runs] : traces) {
    headers.push_back(name);
    curves.push_back(ComputeErrorCurve(runs, truth, checkpoints));
  }
  Table table(headers);
  for (int i = 0; i < checkpoints; ++i) {
    std::vector<std::string> row = {
        Table::Int(static_cast<long long>(curves[0].checkpoints[i]))};
    for (const ErrorCurve& curve : curves) {
      row.push_back(Table::Num(curve.mean_rel_error[i], 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

RunResult RunToBudget(engine::CellResolver* resolver,
                      const AggregateSpec& aggregate, uint64_t budget,
                      engine::EngineOptions options) {
  engine::EstimationEngine eng(resolver, options);
  eng.AddAggregate(aggregate);
  RunEngine(&eng, {.budget = budget});
  return EngineResults(eng)[0];
}

EstimatorSpec MakeLrSpec(const std::string& name, LbsServer* server,
                         const QuerySampler* sampler, AggregateSpec aggregate,
                         int k, LrAggOptions options) {
  return {name, [=](uint64_t seed, uint64_t budget) {
            LrClient client(server, {.k = k, .budget = budget});
            LrAggOptions opts = options;
            opts.seed = seed;
            engine::LrCellResolver resolver(&client, sampler, opts);
            return RunToBudget(&resolver, aggregate, budget,
                               {opts.registry, opts.tracer});
          }};
}

EstimatorSpec MakeLnrSpec(const std::string& name, LbsServer* server,
                          const QuerySampler* sampler, AggregateSpec aggregate,
                          int k, LnrAggOptions options) {
  return {name, [=](uint64_t seed, uint64_t budget) {
            LnrClient client(server, {.k = k, .budget = budget});
            LnrAggOptions opts = options;
            opts.seed = seed;
            engine::LnrCellResolver resolver(&client, sampler, opts);
            return RunToBudget(&resolver, aggregate, budget,
                               {opts.registry, opts.tracer});
          }};
}

EstimatorSpec MakeNnoSpec(const std::string& name, LbsServer* server,
                          AggregateSpec aggregate, int k, NnoOptions options) {
  return {name, [=](uint64_t seed, uint64_t budget) {
            LrClient client(server, {.k = k, .budget = budget});
            NnoOptions opts = options;
            opts.seed = seed;
            engine::NnoProbeResolver resolver(&client, opts);
            return RunToBudget(&resolver, aggregate, budget,
                               {opts.registry, opts.tracer});
          }};
}

LnrAggOptions DefaultLnrBenchOptions() {
  LnrAggOptions options;
  options.cell.search.delta_fraction = 1e-6;
  options.cell.search.delta_prime_fraction = 1e-4;
  return options;
}

void MaybeWriteRunReport(
    const std::string& bench_name,
    const std::map<std::string, std::vector<RunResult>>& traces) {
  const char* path = std::getenv("LBSAGG_RUN_REPORT");
  if (path == nullptr || path[0] == '\0') return;

  obs::RunReport report;
  report.SetMeta("bench", bench_name);
  for (const auto& [name, runs] : traces) {
    RunningStats estimates;
    RunningStats queries;
    for (const RunResult& run : runs) {
      estimates.Add(run.final_estimate);
      queries.Add(static_cast<double>(run.queries));
    }
    report.AddStats(name + ".final_estimate", estimates);
    report.AddStats(name + ".queries", queries);
  }
  report.SetSnapshot(obs::MetricsRegistry::Default().Snapshot());

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write run report to %s\n", path);
    return;
  }
  out << report.ToJson() << "\n";
  std::fprintf(stderr, "run report written to %s\n", path);
}

}  // namespace bench
}  // namespace lbsagg
