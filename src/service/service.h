#ifndef LBSAGG_SERVICE_SERVICE_H_
#define LBSAGG_SERVICE_SERVICE_H_

// Estimation-as-a-service (DESIGN.md §4.12): a long-running host for many
// concurrent estimation sessions over one or several LBS backends.
//
//   EstimationService svc({{.meta = &server, .wire = &sim}}, options);
//   SessionId a = svc.Submit({.family = EstimatorFamily::kLr, ...});
//   SessionId b = svc.Submit({...});
//   svc.RunUntilIdle();
//   SessionStatus done = svc.Poll(a);
//
// Scheduling is cooperative and single-threaded: RunSlice() round-robins
// the active set, giving each session `slice_rounds` engine rounds per turn
// while its soft budget, round cap, and virtual-time deadline allow —
// deterministic by construction. Parallelism lives where it always has in
// this codebase: each backend owns an AsyncDispatcher whose workers fulfill
// the prepared query plans, bit-identical for any worker count (the
// transport contract), so session outcomes and dedup counters are pinned
// across {0,1,4,8}-worker services by sweep_determinism_test.
//
// Cross-session dedup (service/dedup.h) wraps every backend wire: identical
// interface queries from different sessions cost the backend once while each
// session is charged as if it ran alone — estimates stay bit-identical to
// solo runs, and the registry reports the saved backend queries.
//
// Admission control (service/admission.h) bounds the wait queue and sheds
// overflow with kRejected; the active set bounds live engines, so a backlog
// of 10^6 queued sessions is 10^6 specs, not 10^6 engines.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/dedup.h"
#include "service/event.h"
#include "service/session.h"
#include "transport/async_dispatcher.h"
#include "transport/transport.h"

namespace lbsagg {
namespace service {

// One hosted backend: the server (consulted for public knowledge — schema,
// region, attribute reads — while search traffic goes down the wire) plus
// the wire itself. For a sharded backend, `meta` is the ShardedLbsServer
// and `wire` a ShardedTransport over it; for any server, `wire` may be null
// and the service runs a DirectTransport over `meta`.
struct ServiceBackend {
  const LbsServer* meta = nullptr;
  LbsTransport* wire = nullptr;  // null = direct in-process wire over `meta`
};

struct ServiceOptions {
  AdmissionOptions admission;

  // Workers of each backend's AsyncDispatcher (0 = inline batches). Session
  // outcomes are bit-identical for any value — this is the "scheduler worker
  // count" knob the determinism suite sweeps.
  unsigned dispatcher_workers = 0;

  // Engine rounds a session runs per scheduler turn.
  size_t slice_rounds = 1;

  // Cross-session dedup on/off (on is the point; off is the ablation).
  bool dedup = true;

  // Backstop round cap for sessions with SessionSpec::max_rounds == 0.
  size_t default_max_rounds = 1u << 20;

  // Service clock in ms for deadlines, latency accounting, and
  // service.session spans — bind it to the backend wire's virtual time,
  // e.g. [&sim] { return sim.VirtualNowMs(); }. Null = the scheduler's own
  // tick counter (one ms per slice), which keeps everything deterministic
  // when no simulated wire is present.
  std::function<double()> clock_ms;

  // Metric plane for the service.* counters (and everything the service
  // builds: clients, resolvers, engines); null = Default().
  obs::MetricsRegistry* registry = nullptr;

  // When set, every session opens a "service.session" span at Submit and
  // resolves it at finalization: completed sessions close normally,
  // cancelled / deadline-exceeded sessions close with a ".truncated"
  // category suffix, rejected sessions drop theirs, and sessions still live
  // when the service is destroyed are flushed as truncated — a trace file
  // never silently loses in-flight work (DESIGN.md §4.13).
  obs::Tracer* tracer = nullptr;

  // Live flight recorder (obs/introspect/flight_recorder.h). When set, the
  // trigger registry mirrors every session lifecycle event into it —
  // whether or not any trigger is registered — so a drain always shows the
  // recent event stream. Attach the same recorder to `tracer` via
  // Tracer::SetFlightRecorder to interleave spans with the events. Must
  // outlive the service.
  obs::introspect::FlightRecorder* recorder = nullptr;
};

class EstimationService {
 public:
  // Backends must outlive the service. At least one backend, each with a
  // non-null `meta`.
  explicit EstimationService(std::vector<ServiceBackend> backends,
                             ServiceOptions options = {});
  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // Validates and enqueues a session. Always returns a valid id: a shed or
  // invalid session is immediately terminal with state kRejected (Poll the
  // id for the detail).
  SessionId Submit(SessionSpec spec);

  // Snapshot of one session; unknown ids return id == kInvalidSessionId.
  SessionStatus Poll(SessionId id) const;

  // Queued sessions cancel in place; running sessions finalize immediately
  // with their partial results. False when the session is unknown or
  // already terminal.
  bool Cancel(SessionId id);

  // Drops a *terminal* session's record (results included) so long load
  // runs don't accumulate 10^6 frozen traces — harvest via Poll or a
  // kFinished trigger first, then Forget. Never call it from inside a
  // trigger firing for this very session. False when the session is
  // unknown or still live (tallies are unaffected either way).
  bool Forget(SessionId id);

  // One cooperative scheduler turn: tops up the active set from the queue,
  // then runs one session's slice. Returns false when nothing is left to do.
  bool RunSlice();

  // Drives RunSlice() until every submitted session is terminal.
  void RunUntilIdle();

  // Session lifecycle callbacks, fired synchronously from the scheduler.
  TriggerRegistry& triggers() { return triggers_; }

  // The backend's dedup registry; null when ServiceOptions::dedup is off.
  const QueryDedupRegistry* dedup(size_t backend = 0) const;

  double NowMs() const;
  size_t num_backends() const { return backends_.size(); }
  size_t queued() const { return queue_.size(); }
  size_t active() const { return active_.size(); }

  // Lifetime tallies (mirrored by the service.sessions.* counters).
  uint64_t submitted() const { return submitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t cancelled() const { return cancelled_; }
  uint64_t deadline_exceeded() const { return deadline_exceeded_; }

  // The "service" run-report section: session tallies, scheduler state,
  // admission config, and per-backend dedup stats.
  std::string diagnostics_json() const;

  // Statusz rows for every session the service still remembers, id-sorted:
  // state, budget burn-down, deadline slack at NowMs(), and per-aggregate
  // convergence trajectories (live engines read through; terminal sessions
  // report their frozen results without trajectories). Pure observation —
  // calling it perturbs no schedule, estimate, or counter.
  std::vector<SessionIntrospection> IntrospectSessions() const;

 private:
  struct ActiveRun;
  struct Session;
  struct BackendRuntime;

  Session* Find(SessionId id);
  const Session* Find(SessionId id) const;
  void Activate(Session* session);
  void Finalize(Session* session, SessionState state, std::string detail);
  void RemoveActive(Session* session);
  void FillActiveSet();
  bool PastDeadline(const Session& session) const;
  void FireEvent(SessionEventKind kind, const Session& session);

  std::vector<ServiceBackend> backends_;
  ServiceOptions options_;
  std::vector<std::unique_ptr<BackendRuntime>> runtimes_;

  AdmissionQueue queue_;
  TriggerRegistry triggers_;
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  std::vector<Session*> active_;
  size_t rr_cursor_ = 0;
  SessionId next_id_ = 1;
  uint64_t ticks_ = 0;  // slices run; the fallback clock

  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t deadline_exceeded_ = 0;

  obs::CounterRef submitted_counter_;
  obs::CounterRef completed_counter_;
  obs::CounterRef rejected_counter_;
  obs::CounterRef cancelled_counter_;
  obs::CounterRef deadline_counter_;
  obs::CounterRef slices_counter_;
  obs::GaugeRef active_gauge_;
  obs::GaugeRef queued_gauge_;
};

}  // namespace service
}  // namespace lbsagg

#endif  // LBSAGG_SERVICE_SERVICE_H_
