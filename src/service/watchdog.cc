#include "service/watchdog.h"

#include <utility>

#include "util/check.h"

namespace lbsagg {
namespace service {

namespace {

// The session-level half-width is the worst aggregate's: that is the CI the
// budget is still being spent to shrink. Each trace of a RunningSessions()
// row holds only its last point.
double WorstHalfWidth(const SessionStatus& row) {
  double worst = 0.0;
  for (const RunResult& result : row.results) {
    if (!result.trace.empty() && result.trace.back().half_width > worst) {
      worst = result.trace.back().half_width;
    }
  }
  return worst;
}

}  // namespace

SloWatchdog::SloWatchdog(EstimationService* service, SloWatchdogOptions options)
    : service_(service), options_(options) {
  LBSAGG_CHECK(service_ != nullptr);
}

size_t SloWatchdog::Check() {
  size_t fired = 0;
  const double now_ms = service_->NowMs();
  // Rebuilt from the running rows: a baseline carries over only while its
  // session keeps running, so finished and forgotten sessions drop out.
  const std::vector<SessionStatus> rows = service_->RunningSessions();
  std::vector<Baseline> running;
  running.reserve(rows.size());
  auto prev = baselines_.begin();
  for (const SessionStatus& row : rows) {
    while (prev != baselines_.end() && prev->id < row.id) ++prev;
    const bool fresh = prev == baselines_.end() || prev->id != row.id;
    Baseline& base = running.emplace_back(fresh ? Baseline{.id = row.id}
                                                : *prev);

    SessionEvent event;
    event.id = row.id;
    event.state = row.state;
    event.principal = row.principal;
    event.queries_used = row.queries_used;
    event.rounds = row.rounds;
    event.now_ms = now_ms;

    const double half_width = WorstHalfWidth(row);
    if (fresh || (base.half_width == 0.0 && half_width > 0.0)) {
      // First sight — or the CI just became meaningful (it is degenerate
      // below two rounds): (re)prime the slope baseline here.
      base.queries = row.queries_used;
      base.half_width = half_width;
    }

    if (row.deadline_ms > 0 && !base.deadline_fired &&
        row.deadline_slack_ms <= options_.deadline_slack_warn_ms) {
      base.deadline_fired = true;
      ++deadline_fired_;
      ++fired;
      event.kind = SessionEventKind::kDeadlineAtRisk;
      service_->triggers().Fire(event);
    }

    // Error-per-budget slope across the window since the last baseline. A
    // meaningful verdict needs a positive starting half-width (the CI is
    // degenerate below 2 rounds) and enough charged queries for a slope.
    if (!fresh && !base.stalled_fired && base.half_width > 0.0 &&
        row.queries_used >= base.queries + options_.min_queries_between_checks) {
      const double dq =
          static_cast<double>(row.queries_used - base.queries);
      const double drop = base.half_width - half_width;
      if (drop / dq < options_.min_halfwidth_drop_per_query) {
        base.stalled_fired = true;
        ++stalled_fired_;
        ++fired;
        event.kind = SessionEventKind::kSloStalled;
        service_->triggers().Fire(event);
      } else {
        // Still converging: slide the baseline to the current point.
        base.queries = row.queries_used;
        base.half_width = half_width;
      }
    }
  }
  baselines_ = std::move(running);
  return fired;
}

}  // namespace service
}  // namespace lbsagg
