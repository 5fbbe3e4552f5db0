#ifndef LBSAGG_SERVICE_WATCHDOG_H_
#define LBSAGG_SERVICE_WATCHDOG_H_

// SLO watchdog (DESIGN.md §4.13): turns the session snapshots into
// actionable typed triggers. Check() scans RunningSessions() (the running
// statusz rows, each trace cut to its last point) and fires the service's
// existing TriggerRegistry —
//
//   kSloStalled      the session's CI half-width stopped shrinking per
//                    interface query spent (error-per-budget slope below
//                    `min_halfwidth_drop_per_query` across a window of at
//                    least `min_queries_between_checks` charged queries);
//   kDeadlineAtRisk  the session's deadline slack went at-or-below
//                    `deadline_slack_warn_ms` while it still runs.
//
// Each verdict fires at most once per session (the operator acts on it;
// repeating it every slice is noise). The watchdog never touches the
// schedule itself — it is the paper's "is this evidence stream still worth
// paying for?" question (arXiv:1602.03730 asks the same before clustering)
// wired to the trigger plane, and what a trigger does about it (Cancel,
// rebudget, alert) is the caller's policy.
//
// Single-threaded like the scheduler; drive it from the same loop that
// calls RunSlice(). Both verdicts work with instrumentation compiled out:
// the half-width is each aggregate's last trace point, which every build
// records, and deadline slack is scheduler state.
//
// The watchdog keeps a slope baseline only for the sessions the latest
// scan saw running, so a session that finishes (and is forgotten) between
// two scans leaves nothing behind.

#include <cstdint>
#include <vector>

#include "service/service.h"

namespace lbsagg {
namespace service {

struct SloWatchdogOptions {
  // A session whose best aggregate shed less than this much half-width per
  // interface query across the observation window is stalled.
  double min_halfwidth_drop_per_query = 1e-9;
  // Queries a session must charge between verdicts — the slope needs a
  // baseline before it means anything.
  uint64_t min_queries_between_checks = 16;
  // Fire kDeadlineAtRisk when a running session's slack is <= this (ms).
  double deadline_slack_warn_ms = 0.0;
};

class SloWatchdog {
 public:
  // `service` must outlive the watchdog.
  explicit SloWatchdog(EstimationService* service,
                       SloWatchdogOptions options = {});

  // One scan over the live sessions; fires verdict events through
  // service->triggers() and returns how many were fired.
  size_t Check();

  uint64_t stalled_fired() const { return stalled_fired_; }
  uint64_t deadline_fired() const { return deadline_fired_; }

  // Sessions holding a slope baseline: those the last Check() saw running.
  size_t tracked_sessions() const { return baselines_.size(); }

 private:
  struct Baseline {
    SessionId id = kInvalidSessionId;
    uint64_t queries = 0;
    double half_width = 0.0;
    bool stalled_fired = false;
    bool deadline_fired = false;
  };

  EstimationService* service_;
  SloWatchdogOptions options_;
  std::vector<Baseline> baselines_;  // id-sorted, like the scan's rows
  uint64_t stalled_fired_ = 0;
  uint64_t deadline_fired_ = 0;
};

}  // namespace service
}  // namespace lbsagg

#endif  // LBSAGG_SERVICE_WATCHDOG_H_
