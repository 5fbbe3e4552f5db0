#ifndef LBSAGG_BENCH_COMMON_BENCH_COMMON_H_
#define LBSAGG_BENCH_COMMON_BENCH_COMMON_H_

// Shared driver for the paper-reproduction benchmarks (bench/fig*.cc,
// bench/table1_online.cc). Each benchmark binary prints the series of one
// figure/table of §6 of "Aggregate Estimations over Location Based
// Services" (PVLDB 8(10), 2015); this header holds the common experiment
// plumbing: standard scenarios, multi-run sweeps of the three estimators,
// and the query-cost-vs-relative-error tables the paper plots.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "engine/lr_resolver.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace bench {

// Standard benchmark scale. The paper ran against the USA portion of
// OpenStreetMap and the live services; we run laptop-scale synthetic
// equivalents with the same shape (see DESIGN.md).
struct BenchConfig {
  int num_pois = 6000;
  int runs = 15;          // the paper averages 25 runs per data point
  uint64_t budget = 15000;
  int k = 5;
  uint64_t seed_base = 42;
};

// Applies the standard bench command line to `config`: --runs, --budget,
// --pois (each optional, defaults from the passed-in config).
// Returns false after printing usage/error when the arguments don't parse —
// the caller should `return 1`.
bool ApplyBenchFlags(int argc, const char* const* argv, BenchConfig* config);

// One estimator family to sweep.
struct EstimatorSpec {
  std::string name;
  // Builds and runs one estimator run to the budget; returns its trace.
  std::function<RunResult(uint64_t seed, uint64_t budget)> run;
};

// Runs `runs` independent repetitions of each estimator family and returns
// the per-family traces. Runs execute in parallel across worker threads
// (num_threads = 0 picks the hardware concurrency) — every run builds its
// own client, and the shared server/sampler are immutable after
// construction. Each (spec, seed) task is deterministic, so the traces are
// bit-identical for any thread count (sweep_determinism_test.cc pins this).
std::map<std::string, std::vector<RunResult>> SweepEstimators(
    const std::vector<EstimatorSpec>& specs, int runs, uint64_t budget,
    uint64_t seed_base, unsigned num_threads = 0);

// Prints the paper's figure format: rows = target relative error, columns =
// query cost needed by each family (linearly interpolated; ">budget" when a
// family never reaches the target).
void PrintCostVersusErrorTable(
    const std::string& title,
    const std::map<std::string, std::vector<RunResult>>& traces, double truth,
    const std::vector<double>& error_targets = {0.5, 0.4, 0.3, 0.2, 0.15,
                                                0.1});

// Prints mean relative error at evenly spaced query-cost checkpoints.
void PrintErrorVersusCostTable(
    const std::string& title,
    const std::map<std::string, std::vector<RunResult>>& traces, double truth,
    int checkpoints = 8);

// One run of one aggregate: an engine over `resolver`, stepped by the run
// loop to the soft budget.
RunResult RunToBudget(engine::CellResolver* resolver,
                      const AggregateSpec& aggregate, uint64_t budget,
                      engine::EngineOptions options = {});

// Convenience builders for the three estimator families over a fixed server.
// All pointers must outlive the returned spec.
EstimatorSpec MakeLrSpec(const std::string& name, LbsServer* server,
                         const QuerySampler* sampler, AggregateSpec aggregate,
                         int k, LrAggOptions options = {});
EstimatorSpec MakeLnrSpec(const std::string& name, LbsServer* server,
                          const QuerySampler* sampler, AggregateSpec aggregate,
                          int k, LnrAggOptions options = {});
EstimatorSpec MakeNnoSpec(const std::string& name, LbsServer* server,
                          AggregateSpec aggregate, int k,
                          NnoOptions options = {});

// LNR benchmarks use aggregate-grade search precision (§4: the bias is
// O(ε); meter-scale edges would burn the budget on one sample).
LnrAggOptions DefaultLnrBenchOptions();

// Env-gated run-report emission (DESIGN.md §4.8): when LBSAGG_RUN_REPORT
// names a path, writes one RunReport JSON artifact there — per-family
// RunningStats over the runs' final estimates and query costs, and a
// snapshot of the process-wide metric plane (the benchmark clients and
// estimators publish to obs::MetricsRegistry::Default()). Every
// bench/fig*/table*/ablation* target calls this after printing its tables;
// without the env var it is a no-op, so default benchmark runs are
// byte-identical to before.
void MaybeWriteRunReport(
    const std::string& bench_name,
    const std::map<std::string, std::vector<RunResult>>& traces);

}  // namespace bench
}  // namespace lbsagg

#endif  // LBSAGG_BENCH_COMMON_BENCH_COMMON_H_
