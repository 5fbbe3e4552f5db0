#ifndef LBSAGG_ENGINE_AGGREGATE_QUERY_H_
#define LBSAGG_ENGINE_AGGREGATE_QUERY_H_

// The aggregation layer (DESIGN.md §4.9): one AggregateQuery per
// SELECT AGGR(t) WHERE Cond, folding the shared evidence stream into an
// independent Horvitz–Thompson estimate and its trace, one TracePoint
// (queries, estimate, confidence half-width) per committed round.
// The observations are aggregate-agnostic — once p(t) is resolved, Q(t)/p(t)
// is unbiased for every aggregate simultaneously (§2.3, §3.2) — so N
// consumers ride one interface budget, and AVG = SUM/COUNT holds by
// construction (an AVG consumer's numerator/denominator streams are exactly
// the matching SUM/COUNT consumers' numerator streams).

#include <cstddef>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/trace_point.h"
#include "engine/observation.h"
#include "util/stats.h"

namespace lbsagg {
namespace engine {

class AggregateQuery {
 public:
  // `client` is the resolver's restricted client; attribute reads through it
  // are free (no interface queries). Must outlive the query.
  AggregateQuery(const AggregateSpec& spec, const LbsClient* client);

  // Folds one committed round's observation slice into the running
  // estimate, then extends the trace at the round's query boundary with the
  // new estimate and half-width.
  void ConsumeRound(const EvidenceRound& round, const Observation* observations,
                    size_t num_observations);

  // Current estimate: mean of per-round estimates (kAvg: ratio of means).
  double Estimate() const;

  // Normal-approximation confidence half-width of the estimate (not
  // meaningful for kAvg).
  double ConfidenceHalfWidth(double z = 1.96) const;

  size_t rounds() const { return numerator_.count(); }
  const AggregateSpec& spec() const { return spec_; }
  // One point per committed round: the estimate and its half-width vs
  // interface queries (the statusz trajectory, DESIGN.md §4.13).
  const std::vector<TracePoint>& trace() const { return trace_; }

  // Per-round means of the Horvitz–Thompson numerator and denominator.
  // Pooling these across independent runs gives a combined ratio estimator
  // whose small-sample bias shrinks with the total sample count (averaging
  // per-run ratios would not).
  double NumeratorMean() const { return numerator_.mean(); }
  double DenominatorMean() const { return denominator_.mean(); }

 private:
  // Horvitz–Thompson contribution of one observation, reproducing the
  // pre-engine estimators' per-family gates and arithmetic bit-for-bit.
  void FoldObservation(const Observation& obs, double* numerator,
                       double* denominator) const;

  AggregateSpec spec_;
  const LbsClient* client_;
  RunningStats numerator_;
  RunningStats denominator_;
  std::vector<TracePoint> trace_;
};

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_AGGREGATE_QUERY_H_
