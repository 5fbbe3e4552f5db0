#include "core/runner.h"

#include <algorithm>
#include <cmath>

#include "engine/engine.h"
#include "engine/log/durable_log.h"
#include "util/check.h"

namespace lbsagg {

namespace {

// §2.3's stopping rule on the first registered aggregate (StopRule).
bool ConfidenceReached(const engine::EstimationEngine& engine,
                       const StopRule& rule) {
  if (rule.target_ci <= 0.0 ||
      engine.evidence().num_rounds() < rule.min_rounds) {
    return false;
  }
  const engine::AggregateQuery& query = *engine.aggregate(0);
  const double estimate = query.Estimate();
  return estimate != 0.0 &&
         query.ConfidenceHalfWidth() <= rule.target_ci * std::abs(estimate);
}

}  // namespace

size_t RunEngine(engine::EstimationEngine* engine, const StopRule& rule,
                 engine::DurableEvidenceLog* wal) {
  LBSAGG_CHECK(engine != nullptr);
  LBSAGG_CHECK_GT(rule.budget, 0u);
  if (rule.target_ci > 0.0) {
    LBSAGG_CHECK_GT(engine->num_aggregates(), 0u);
    LBSAGG_CHECK(engine->aggregate(0)->spec().kind !=
                 AggregateSpec::Kind::kAvg)
        << "the confidence rule needs a COUNT or SUM first aggregate (an "
           "AVG's half-width is its numerator's)";
  }
  size_t rounds = 0;
  while (rounds < rule.max_rounds && engine->queries_used() < rule.budget &&
         !ConfidenceReached(*engine, rule)) {
    engine->Step();
    ++rounds;
    if (wal != nullptr) wal->MaybeCheckpoint();
  }
  return rounds;
}

std::vector<RunResult> EngineResults(const engine::EstimationEngine& engine) {
  std::vector<RunResult> results;
  results.reserve(engine.num_aggregates());
  for (size_t i = 0; i < engine.num_aggregates(); ++i) {
    const engine::AggregateQuery& query = *engine.aggregate(i);
    RunResult result;
    result.trace = query.trace();
    result.final_estimate = query.Estimate();
    result.queries = engine.queries_used();
    results.push_back(std::move(result));
  }
  return results;
}

double EstimateAtCost(const std::vector<TracePoint>& trace, uint64_t cost) {
  double estimate = 0.0;
  for (const TracePoint& p : trace) {
    if (p.queries > cost) break;
    estimate = p.estimate;
  }
  return estimate;
}

ErrorCurve ComputeErrorCurve(const std::vector<RunResult>& runs, double truth,
                             int num_checkpoints) {
  LBSAGG_CHECK(!runs.empty());
  LBSAGG_CHECK_GE(num_checkpoints, 2);
  uint64_t max_cost = std::numeric_limits<uint64_t>::max();
  for (const RunResult& run : runs) {
    max_cost = std::min(max_cost, run.queries);
  }
  LBSAGG_CHECK_GT(max_cost, 0u);

  ErrorCurve curve;
  curve.checkpoints.reserve(num_checkpoints);
  curve.mean_rel_error.reserve(num_checkpoints);
  for (int i = 1; i <= num_checkpoints; ++i) {
    const uint64_t c = static_cast<uint64_t>(
        static_cast<double>(max_cost) * i / num_checkpoints);
    double total = 0.0;
    for (const RunResult& run : runs) {
      total += RelativeError(EstimateAtCost(run.trace, c), truth);
    }
    curve.checkpoints.push_back(c);
    curve.mean_rel_error.push_back(total / runs.size());
  }
  return curve;
}

obs::RunReport BuildRunReport(const std::string& estimator_name,
                              const RunResult& result,
                              obs::MetricsRegistry* registry) {
  obs::RunReport report;
  report.SetMeta("estimator", estimator_name);
  report.SetMetaNum("final_estimate", result.final_estimate);
  report.SetMetaNum("queries", static_cast<double>(result.queries));
  report.SetMetaNum("rounds", static_cast<double>(result.trace.size()));

  RunningStats running_estimate;
  for (const TracePoint& p : result.trace) running_estimate.Add(p.estimate);
  report.AddStats("running_estimate", running_estimate);

  if (registry == nullptr) registry = &obs::MetricsRegistry::Default();
  report.SetSnapshot(registry->Snapshot());
  return report;
}

double QueryCostForError(const ErrorCurve& curve, double target) {
  LBSAGG_CHECK(!curve.checkpoints.empty());
  for (size_t i = 0; i < curve.checkpoints.size(); ++i) {
    if (curve.mean_rel_error[i] <= target) {
      if (i == 0) return static_cast<double>(curve.checkpoints[0]);
      // Linear interpolation between the straddling checkpoints.
      const double e0 = curve.mean_rel_error[i - 1];
      const double e1 = curve.mean_rel_error[i];
      const double c0 = static_cast<double>(curve.checkpoints[i - 1]);
      const double c1 = static_cast<double>(curve.checkpoints[i]);
      if (e0 <= e1) return c1;
      const double frac = (e0 - target) / (e0 - e1);
      return c0 + frac * (c1 - c0);
    }
  }
  return static_cast<double>(curve.checkpoints.back());
}

}  // namespace lbsagg
