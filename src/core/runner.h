#ifndef LBSAGG_CORE_RUNNER_H_
#define LBSAGG_CORE_RUNNER_H_

#include <string>
#include <vector>

#include "core/trace_point.h"
#include "obs/report.h"
#include "util/stats.h"

namespace lbsagg {

namespace engine {
class DurableEvidenceLog;
class EstimationEngine;
}  // namespace engine

// One run: estimate trace until the query budget is reached.
struct RunResult {
  std::vector<TracePoint> trace;
  double final_estimate = 0.0;
  uint64_t queries = 0;
};

// When the run loop stops: at the soft budget, at a round cap, or — when
// asked — at §2.3's confidence target, whichever comes first.
struct StopRule {
  // Soft interface-attempt budget (§2.1): the loop steps while
  // queries_used < budget, so the round in flight when the budget trips
  // finishes — the paper's soft rate-limit semantics. Must be > 0.
  //
  // Retries and the budget: the engine reports the client's counter, and
  // through a retrying transport that counter charges once per *interface
  // attempt*, not once per logical query (§2.1 meters what hits the
  // service — a query that succeeded on its third attempt consumed three
  // slots of the service's rate limit). So under fault injection a run
  // finishes fewer sampling rounds for the same budget, which is precisely
  // the degradation the transport exists to measure. Pinned by
  // transport_test.cc.
  uint64_t budget = 0;

  // Cap on the rounds *this call* runs; rounds restored from a durable log
  // do not count. The service's time slices and the kill-after-rounds crash
  // harness lean on that.
  size_t max_rounds = 1u << 20;

  // §2.3's practical stopping rule, off at 0: stop once the first
  // registered aggregate's 95% confidence half-width (Bessel-corrected
  // sample variance) is at most `target_ci` × |estimate|, after at least
  // `min_rounds` committed rounds. It reads engine state only — committed
  // rounds, restored ones included, and the aggregate's estimate and
  // half-width — so a resumed durable run stops where the uninterrupted run
  // stops. The first aggregate must be a COUNT or SUM: an AVG's half-width
  // is its numerator's, on the SUM scale, and would never meet the rule.
  double target_ci = 0.0;
  size_t min_rounds = 30;
};

// The one run loop (DESIGN.md §4.9): steps `engine` until `rule` says stop
// and returns the number of rounds this call ran. When `wal` is set, its
// round-aligned checkpoint policy runs after every round (MaybeCheckpoint,
// between steps: the aggregates fold after EndRound commits, and a
// checkpoint must capture post-fold state). The engine must already carry
// the `wal` sink. The loop never closes the log — the caller does, where
// the run ends, so a time slice or a crash harness can stop mid-run.
size_t RunEngine(engine::EstimationEngine* engine, const StopRule& rule,
                 engine::DurableEvidenceLog* wal = nullptr);

// One RunResult per registered aggregate, results[i] for
// engine.aggregate(i) — all carved from the same evidence stream, so the N
// results together cost one budget.
std::vector<RunResult> EngineResults(const engine::EstimationEngine& engine);

// The running estimate of a trace at query cost `c` (last round completed at
// or before c; 0 before the first round).
double EstimateAtCost(const std::vector<TracePoint>& trace, uint64_t cost);

// Mean relative error across runs at each query-cost checkpoint. The
// checkpoints are `num_checkpoints` evenly spaced costs up to the smallest
// final cost across runs.
struct ErrorCurve {
  std::vector<uint64_t> checkpoints;
  std::vector<double> mean_rel_error;
};
ErrorCurve ComputeErrorCurve(const std::vector<RunResult>& runs, double truth,
                             int num_checkpoints = 60);

// Smallest checkpointed query cost at which the mean relative error drops
// to `target` (linear interpolation between checkpoints). Returns the last
// checkpoint cost when the target is never reached (callers report it as a
// lower bound).
double QueryCostForError(const ErrorCurve& curve, double target);

// Assembles the single run-report artifact (DESIGN.md §4.8) from one run:
// run meta (estimator name, final estimate, query cost, rounds), a
// RunningStats summary of the running-estimate trace, and a snapshot of the
// metric plane — which carries whatever the run's components published
// (estimator.*, client.*, spatial.*, engine.*, transport.*).
// `registry == nullptr` snapshots obs::MetricsRegistry::Default(). Callers
// layer on extra context via AddStats/SetMeta/AddJsonSection (e.g. the
// transport's own JSON).
obs::RunReport BuildRunReport(const std::string& estimator_name,
                              const RunResult& result,
                              obs::MetricsRegistry* registry = nullptr);

}  // namespace lbsagg

#endif  // LBSAGG_CORE_RUNNER_H_
