#ifndef LBSAGG_CORE_TRACE_POINT_H_
#define LBSAGG_CORE_TRACE_POINT_H_

#include <cstdint>

namespace lbsagg {

// One point of an estimation trace: the running estimate after a sampling
// round and its 95% confidence half-width (§2.3), indexed by cumulative
// interface queries. Figure 12 plots the estimates; statusz trajectories
// and the SLO watchdog read the half-widths. Trace fingerprints hash
// `queries` and `estimate` only.
//
// Deliberately dependency-free: every estimator, the engine's aggregation
// layer, and core/runner all speak this type, and none of them should drag
// in another's header for it.
struct TracePoint {
  uint64_t queries = 0;
  double estimate = 0.0;
  double half_width = 0.0;
};

}  // namespace lbsagg

#endif  // LBSAGG_CORE_TRACE_POINT_H_
