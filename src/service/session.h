#ifndef LBSAGG_SERVICE_SESSION_H_
#define LBSAGG_SERVICE_SESSION_H_

// Session types of the estimation service (DESIGN.md §4.12): what a caller
// submits (SessionSpec), the typed lifecycle states, and the one snapshot
// of a session (SessionStatus) that Poll(), IntrospectSessions() and
// RunningSessions() return.
// A session is one estimation run — one resolver family, one seed, one
// budget — hosted by the EstimationService scheduler alongside many others.

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/lnr_resolver.h"
#include "engine/lr_resolver.h"
#include "engine/nno_resolver.h"

namespace lbsagg {
namespace service {

// Lifecycle: kQueued → kRunning → {kCompleted, kCancelled, kDeadlineExceeded},
// with kRejected (admission shed) and kCancelled also reachable straight from
// the queue. Terminal states never transition again.
enum class SessionState : uint8_t {
  kQueued = 0,
  kRunning,
  kCompleted,
  kCancelled,
  kRejected,
  kDeadlineExceeded,
};
inline constexpr int kNumSessionStates = 6;

const char* SessionStateName(SessionState state);

inline bool IsTerminal(SessionState state) {
  return state != SessionState::kQueued && state != SessionState::kRunning;
}

// Which acquisition-layer resolver drives the session (engine/ carries the
// per-family determinism guarantees; the service only schedules them).
enum class EstimatorFamily : uint8_t { kLr = 0, kLnr, kNno };

const char* EstimatorFamilyName(EstimatorFamily family);

using SessionId = uint64_t;
inline constexpr SessionId kInvalidSessionId = 0;

// One submitted estimation session. The spec is self-contained: the service
// builds the client / resolver / engine stack lazily when the session is
// admitted to the active set, so a deep backlog of queued sessions costs a
// spec each, not an engine each.
struct SessionSpec {
  // Admission principal for fair-share scheduling (tenant / user id).
  std::string principal = "anonymous";

  EstimatorFamily family = EstimatorFamily::kNno;

  // Aggregates folded from the session's shared evidence stream; empty means
  // COUNT(*). All of them ride the one interface-query budget below.
  std::vector<AggregateSpec> aggregates;

  // Page size requested per interface query (clamped to the backend max_k).
  int k = 5;

  // Soft interface-attempt budget, exactly StopRule::budget (core/runner.h):
  // the engine steps while queries_used < budget, so mid-round work may
  // overrun like every fixed-budget experiment in the paper. Must be > 0.
  uint64_t budget = 200;

  // Hard cap on sampling rounds (0 = service default). The budget is the
  // intended stop; the round cap is a backstop for free backends.
  size_t max_rounds = 0;

  // Virtual-time deadline in ms, measured from Submit() on the service
  // clock; 0 = none. Queue wait counts against it. A session past its
  // deadline finishes kDeadlineExceeded with whatever partial results its
  // aggregates have folded so far.
  double deadline_ms = 0;

  // Session randomness: seeds the resolver's rng (overrides the family
  // option struct's seed field).
  uint64_t seed = 1;

  // Index into the service's backend list.
  size_t backend = 0;

  // Query-location sampler; null = uniform over the backend's region. Must
  // outlive the session when set.
  const QuerySampler* sampler = nullptr;

  // Durable evidence log (engine/log/, DESIGN.md §4.14). When non-empty the
  // session's engine mirrors every committed round into a WAL under this
  // directory and writes round-aligned checkpoints, so a killed process can
  // be resumed. The directory is the session's persistence handle — it must
  // not be shared between concurrent sessions.
  std::string wal_dir;

  // Resume handle: the wal_dir of an interrupted session. When non-empty,
  // activation recovers the directory (torn tail truncated, newest valid
  // checkpoint applied), replays the evidence, and continues the run
  // bit-identically — the remaining rounds, final estimates, and trace are
  // those of an uninterrupted run. Logging continues into the same
  // directory. The spec must otherwise match the interrupted session's
  // (family, seed, k, aggregates, budget); mismatches finish kRejected with
  // the reason in `detail`.
  // wal_dir may be left empty — resume_from names the directory.
  std::string resume_from;

  // Checkpoint cadence in committed rounds (0 = only at finalization). The
  // WAL makes evidence durable every round regardless; this only bounds how
  // many rounds recovery re-executes.
  uint64_t checkpoint_every_rounds = 64;

  // Family-specific tuning. The seed / registry / tracer members inside are
  // ignored — the service substitutes spec.seed and its own obs plane.
  LrAggOptions lr;
  LnrAggOptions lnr;
  NnoOptions nno;
};

// Snapshot of one session: what EstimationService::Poll() returns, and one
// row of IntrospectSessions() (statusz) or RunningSessions() (the SLO
// watchdog, whose rows carry only each trace's last point).
// While the session runs, the progress fields read its live engine; once it
// is terminal they are frozen at finalization. All values are copies.
struct SessionStatus {
  SessionId id = kInvalidSessionId;
  SessionState state = SessionState::kQueued;
  std::string principal;
  EstimatorFamily family = EstimatorFamily::kNno;

  // The spec's soft budget, and the interface attempts charged to this
  // session so far (§2.1 cost).
  uint64_t budget = 0;
  uint64_t queries_used = 0;
  // Sampling rounds committed.
  size_t rounds = 0;

  // Queries this session was charged for but the backend never saw because
  // the cross-session dedup registry answered them (see service/dedup.h).
  uint64_t dedup_hits = 0;

  // One result per aggregate, in spec order: the live results while the
  // session runs, frozen at finalization (partial for kCancelled /
  // kDeadlineExceeded). Empty until the session first runs, and for
  // kRejected. Each trace is the aggregate's trajectory: its estimate and
  // CI half-width after every round.
  std::vector<RunResult> results;

  // Service-clock timeline in ms: submit always set; start < 0 until the
  // session first runs; end < 0 until terminal.
  double submit_ms = 0;
  double start_ms = -1;
  double end_ms = -1;
  // end - submit once terminal (the p50/p99 latency the bench reports).
  double latency_ms = 0;

  // The spec's deadline (0 = none) and, when there is one, its slack at the
  // snapshot: submit_ms + deadline_ms - now (negative = already past it).
  double deadline_ms = 0;
  double deadline_slack_ms = 0;

  // Human-readable detail for kRejected (shed reason) and Poll misses.
  std::string detail;
};

}  // namespace service
}  // namespace lbsagg

#endif  // LBSAGG_SERVICE_SESSION_H_
