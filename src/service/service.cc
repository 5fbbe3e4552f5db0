#include "service/service.h"

#include <algorithm>
#include <utility>

#include "engine/log/durable_log.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace service {

const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kCompleted:
      return "completed";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kRejected:
      return "rejected";
    case SessionState::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

const char* EstimatorFamilyName(EstimatorFamily family) {
  switch (family) {
    case EstimatorFamily::kLr:
      return "lr";
    case EstimatorFamily::kLnr:
      return "lnr";
    case EstimatorFamily::kNno:
      return "nno";
  }
  return "unknown";
}

namespace {

// The one "service.session" span of a session that ran or waited, emitted
// when it ends (DESIGN.md §4.13).
void EmitSessionSpan(obs::Tracer* tracer, double submit_ms, double end_ms,
                     bool truncated) {
  const double ts_us = submit_ms * 1000.0;
  tracer->AddComplete("service.session",
                      truncated ? "service.truncated" : "service", ts_us,
                      end_ms * 1000.0 - ts_us);
}

bool ById(const SessionStatus& a, const SessionStatus& b) {
  return a.id < b.id;
}

}  // namespace

// The per-session engine stack, built at activation and torn down at
// finalization, so only the active set pays for live engines.
struct EstimationService::ActiveRun {
  std::unique_ptr<LbsClient> client;
  std::unique_ptr<engine::CellResolver> resolver;
  std::unique_ptr<engine::EstimationEngine> engine;
  // Durable evidence log (spec.wal_dir); declared last so it detaches from
  // the engine and closes before the engine/client it reads are destroyed.
  std::unique_ptr<engine::DurableEvidenceLog> wal;
};

struct EstimationService::Session {
  SessionId id = kInvalidSessionId;
  SessionSpec spec;
  SessionState state = SessionState::kQueued;
  std::string detail;

  double submit_ms = 0;
  double start_ms = -1;
  double end_ms = -1;

  uint64_t dedup_hits = 0;
  size_t rounds = 0;

  // Frozen at finalization (live values come from `run` until then).
  uint64_t queries = 0;
  std::vector<RunResult> results;

  std::unique_ptr<ActiveRun> run;
};

// Everything the service owns per backend: the effective wire (direct or
// caller-provided, dedup-wrapped when enabled), its worker pool (null
// without dispatcher workers), and the default query sampler.
struct EstimationService::BackendRuntime {
  std::unique_ptr<DirectTransport> direct;
  std::unique_ptr<QueryDedupRegistry> dedup;
  std::unique_ptr<DedupTransport> dedup_wire;
  LbsTransport* wire = nullptr;
  std::unique_ptr<AsyncDispatcher> dispatcher;
  std::unique_ptr<UniformSampler> sampler;
};

EstimationService::EstimationService(std::vector<ServiceBackend> backends,
                                     ServiceOptions options)
    : backends_(std::move(backends)),
      options_(std::move(options)),
      queue_(options_.admission) {
  LBSAGG_CHECK(!backends_.empty());
  LBSAGG_CHECK_GT(options_.slice_rounds, 0u);

  obs::MetricsRegistry* reg = options_.registry;
  submitted_counter_ = obs::GetCounter(reg, "service.sessions.submitted");
  completed_counter_ = obs::GetCounter(reg, "service.sessions.completed");
  rejected_counter_ = obs::GetCounter(reg, "service.sessions.rejected");
  cancelled_counter_ = obs::GetCounter(reg, "service.sessions.cancelled");
  deadline_counter_ = obs::GetCounter(reg, "service.sessions.deadline_exceeded");
  slices_counter_ = obs::GetCounter(reg, "service.scheduler.slices");
  active_gauge_ = obs::GetGauge(reg, "service.scheduler.active");
  queued_gauge_ = obs::GetGauge(reg, "service.scheduler.queued");

  triggers_.SetFlightRecorder(options_.recorder);

  runtimes_.reserve(backends_.size());
  for (ServiceBackend& backend : backends_) {
    LBSAGG_CHECK(backend.meta != nullptr);
    auto rt = std::make_unique<BackendRuntime>();
    LbsTransport* wire = backend.wire;
    if (wire == nullptr) {
      rt->direct = std::make_unique<DirectTransport>(backend.meta);
      wire = rt->direct.get();
    }
    if (options_.dedup) {
      rt->dedup = std::make_unique<QueryDedupRegistry>(reg);
      rt->dedup_wire = std::make_unique<DedupTransport>(wire, rt->dedup.get());
      wire = rt->dedup_wire.get();
    }
    rt->wire = wire;
    if (options_.dispatcher_workers > 0) {
      rt->dispatcher = std::make_unique<AsyncDispatcher>(
          wire, DispatcherOptions{.num_workers = options_.dispatcher_workers});
    }
    rt->sampler = std::make_unique<UniformSampler>(backend.meta->dataset().box());
    runtimes_.push_back(std::move(rt));
  }
}

EstimationService::~EstimationService() {
  // Sessions still live at teardown emit their spans truncated here, so the
  // trace file records the in-flight work instead of silently dropping it.
  if (options_.tracer != nullptr) {
    const double end_ms = NowMs();
    for (const auto& [id, session] : sessions_) {
      if (!IsTerminal(session->state)) {
        EmitSessionSpan(options_.tracer, session->submit_ms, end_ms,
                        /*truncated=*/true);
      }
    }
  }
}

double EstimationService::NowMs() const {
  if (options_.clock_ms) return options_.clock_ms();
  return static_cast<double>(ticks_);
}

const QueryDedupRegistry* EstimationService::dedup(size_t backend) const {
  LBSAGG_CHECK_LT(backend, runtimes_.size());
  return runtimes_[backend]->dedup.get();
}

EstimationService::Session* EstimationService::Find(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const EstimationService::Session* EstimationService::Find(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

SessionId EstimationService::Submit(SessionSpec spec) {
  const SessionId id = next_id_++;
  auto owned = std::make_unique<Session>();
  Session* session = owned.get();
  session->id = id;
  session->spec = std::move(spec);
  session->submit_ms = NowMs();
  sessions_.emplace(id, std::move(owned));
  ++submitted_;
  submitted_counter_.Add(1);

  std::string error;
  if (session->spec.budget == 0) {
    error = "budget must be > 0";
  } else if (session->spec.k <= 0) {
    error = "k must be > 0";
  } else if (session->spec.backend >= backends_.size()) {
    error = "unknown backend";
  }
  if (!error.empty()) {
    Finalize(session, SessionState::kRejected, std::move(error));
    return id;
  }
  if (!queue_.TryEnqueue(id, session->spec.principal)) {
    Finalize(session, SessionState::kRejected, "admission queue full");
    return id;
  }
  queued_gauge_.Set(static_cast<double>(queue_.size()));
  FireEvent(SessionEventKind::kSubmitted, *session);
  return id;
}

SessionStatus EstimationService::Status(const Session& session,
                                        double now_ms,
                                        bool last_point_only) const {
  SessionStatus status;
  status.id = session.id;
  status.state = session.state;
  status.principal = session.spec.principal;
  status.family = session.spec.family;
  status.budget = session.spec.budget;
  status.rounds = session.rounds;
  status.dedup_hits = session.dedup_hits;
  if (session.run != nullptr) {
    status.queries_used = session.run->engine->queries_used();
    status.results = EngineResults(*session.run->engine, last_point_only);
  } else {
    status.queries_used = session.queries;
    status.results = session.results;
  }
  status.submit_ms = session.submit_ms;
  status.start_ms = session.start_ms;
  status.end_ms = session.end_ms;
  if (IsTerminal(session.state)) {
    status.latency_ms = session.end_ms - session.submit_ms;
  }
  status.deadline_ms = session.spec.deadline_ms;
  if (status.deadline_ms > 0) {
    status.deadline_slack_ms =
        session.submit_ms + session.spec.deadline_ms - now_ms;
  }
  status.detail = session.detail;
  return status;
}

SessionStatus EstimationService::Poll(SessionId id) const {
  const Session* session = Find(id);
  if (session == nullptr) {
    SessionStatus status;
    status.detail = "unknown session";
    return status;
  }
  return Status(*session, NowMs());
}

bool EstimationService::Cancel(SessionId id) {
  Session* session = Find(id);
  if (session == nullptr || IsTerminal(session->state)) return false;
  if (session->state == SessionState::kQueued) {
    queue_.Remove(id);
    queued_gauge_.Set(static_cast<double>(queue_.size()));
  } else {
    RemoveActive(session);
  }
  Finalize(session, SessionState::kCancelled, "cancelled by caller");
  return true;
}

bool EstimationService::Forget(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !IsTerminal(it->second->state)) return false;
  sessions_.erase(it);
  return true;
}

void EstimationService::Activate(Session* session) {
  BackendRuntime& rt = *runtimes_[session->spec.backend];
  const LbsServer* meta = backends_[session->spec.backend].meta;
  auto run = std::make_unique<ActiveRun>();

  ClientOptions copts;
  copts.k = session->spec.k;
  copts.budget = session->spec.budget;
  copts.registry = options_.registry;
  copts.tracer = options_.tracer;

  const QuerySampler* sampler = session->spec.sampler != nullptr
                                    ? session->spec.sampler
                                    : rt.sampler.get();

  switch (session->spec.family) {
    case EstimatorFamily::kLr: {
      auto client = std::make_unique<LrClient>(meta, copts, rt.wire,
                                               rt.dispatcher.get());
      LrAggOptions opts = session->spec.lr;
      opts.seed = session->spec.seed;
      opts.registry = options_.registry;
      opts.tracer = options_.tracer;
      run->resolver = std::make_unique<engine::LrCellResolver>(client.get(),
                                                               sampler, opts);
      run->client = std::move(client);
      break;
    }
    case EstimatorFamily::kLnr: {
      auto client = std::make_unique<LnrClient>(meta, copts, rt.wire,
                                                rt.dispatcher.get());
      LnrAggOptions opts = session->spec.lnr;
      opts.seed = session->spec.seed;
      opts.registry = options_.registry;
      opts.tracer = options_.tracer;
      run->resolver = std::make_unique<engine::LnrCellResolver>(client.get(),
                                                                sampler, opts);
      run->client = std::move(client);
      break;
    }
    case EstimatorFamily::kNno: {
      auto client = std::make_unique<LrClient>(meta, copts, rt.wire,
                                               rt.dispatcher.get());
      NnoOptions opts = session->spec.nno;
      opts.seed = session->spec.seed;
      opts.registry = options_.registry;
      opts.tracer = options_.tracer;
      run->resolver =
          std::make_unique<engine::NnoProbeResolver>(client.get(), opts);
      run->client = std::move(client);
      break;
    }
  }

  run->engine = std::make_unique<engine::EstimationEngine>(
      run->resolver.get(),
      engine::EngineOptions{options_.registry, options_.tracer});
  if (session->spec.aggregates.empty()) {
    run->engine->AddAggregate(AggregateSpec::Count());
  } else {
    for (const AggregateSpec& spec : session->spec.aggregates) {
      run->engine->AddAggregate(spec);
    }
  }

  // Session persistence (DESIGN.md §4.14). Resume first — recovery and the
  // evidence replay must run against the freshly built stack before any new
  // round — then attach the durable log so every round from here on lands
  // in the WAL. Failures reject the session rather than run it: a resumed
  // run whose state cannot be restored bit-identically must not proceed.
  const std::string wal_dir = !session->spec.resume_from.empty()
                                  ? session->spec.resume_from
                                  : session->spec.wal_dir;
  if (!wal_dir.empty()) {
    if (!session->spec.resume_from.empty()) {
      engine::RecoveredRun rec = engine::RecoverDurableRun(wal_dir);
      std::string error = rec.error;
      if (error.empty()) {
        run->engine->RestoreEvidence(rec.evidence);
        error = engine::ApplyCheckpoint(rec, run->engine.get(),
                                        run->client.get());
      }
      if (!error.empty()) {
        Finalize(session, SessionState::kRejected, "resume failed: " + error);
        return;
      }
      // The round cap continues where the interrupted run stopped, exactly
      // as the uninterrupted run would count it.
      session->rounds = run->engine->evidence().num_rounds();
    }
    engine::DurableLogOptions log_options;
    log_options.dir = wal_dir;
    log_options.checkpoint_every_rounds = session->spec.checkpoint_every_rounds;
    run->wal = std::make_unique<engine::DurableEvidenceLog>(
        log_options, run->engine.get(), run->client.get());
    if (!run->wal->ok()) {
      Finalize(session, SessionState::kRejected,
               "durable log failed: " + run->wal->error());
      return;
    }
  }

  session->run = std::move(run);
  session->state = SessionState::kRunning;
  session->start_ms = NowMs();
  active_.push_back(session);
  active_gauge_.Set(static_cast<double>(active_.size()));
  FireEvent(SessionEventKind::kStarted, *session);
}

void EstimationService::Finalize(Session* session, SessionState state,
                                 std::string detail) {
  LBSAGG_CHECK(IsTerminal(state));
  if (session->run != nullptr) {
    // Final checkpoint + sync before the engine state is frozen: a session
    // finalized at its budget leaves a WAL that recovers to exactly the
    // finalized state (and a cancelled one resumes from where it stopped).
    if (session->run->wal != nullptr) session->run->wal->Close();
    session->queries = session->run->engine->queries_used();
    session->results = EngineResults(*session->run->engine);
    session->run.reset();
    active_gauge_.Set(static_cast<double>(active_.size()));
  }
  session->state = state;
  session->detail = std::move(detail);
  session->end_ms = NowMs();
  switch (state) {
    case SessionState::kCompleted:
      ++completed_;
      completed_counter_.Add(1);
      break;
    case SessionState::kCancelled:
      ++cancelled_;
      cancelled_counter_.Add(1);
      break;
    case SessionState::kRejected:
      ++rejected_;
      rejected_counter_.Add(1);
      break;
    case SessionState::kDeadlineExceeded:
      ++deadline_exceeded_;
      deadline_counter_.Add(1);
      break;
    default:
      break;
  }
  // Rejected sessions never ran and show no span; a cancelled or
  // deadline-exceeded session's span is real work cut short, emitted
  // truncated instead of lost.
  if (options_.tracer != nullptr && state != SessionState::kRejected) {
    EmitSessionSpan(options_.tracer, session->submit_ms, session->end_ms,
                    /*truncated=*/state != SessionState::kCompleted);
  }
  FireEvent(state == SessionState::kRejected ? SessionEventKind::kRejected
                                             : SessionEventKind::kFinished,
            *session);
}

void EstimationService::RemoveActive(Session* session) {
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] != session) continue;
    active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
    // Keep the round-robin rotation fair: entries before the cursor shifted
    // left by one.
    if (i < rr_cursor_) --rr_cursor_;
    return;
  }
}

bool EstimationService::PastDeadline(const Session& session) const {
  return session.spec.deadline_ms > 0 &&
         NowMs() - session.submit_ms > session.spec.deadline_ms;
}

void EstimationService::FillActiveSet() {
  while (active_.size() < queue_.options().max_active) {
    const SessionId id = queue_.PopNext();
    if (id == kInvalidSessionId) break;
    Session* session = Find(id);
    LBSAGG_CHECK(session != nullptr);
    if (PastDeadline(*session)) {
      Finalize(session, SessionState::kDeadlineExceeded,
               "deadline exceeded while queued");
      continue;
    }
    Activate(session);
  }
  queued_gauge_.Set(static_cast<double>(queue_.size()));
}

bool EstimationService::RunSlice() {
  FillActiveSet();
  if (active_.empty()) return false;
  ++ticks_;
  slices_counter_.Add(1);

  const size_t idx = rr_cursor_ % active_.size();
  Session* session = active_[idx];
  if (PastDeadline(*session)) {
    RemoveActive(session);
    Finalize(session, SessionState::kDeadlineExceeded, "deadline exceeded");
    return true;
  }

  BackendRuntime& rt = *runtimes_[session->spec.backend];
  const uint64_t budget = session->spec.budget;
  const size_t max_rounds = session->spec.max_rounds != 0
                                ? session->spec.max_rounds
                                : options_.default_max_rounds;
  engine::EstimationEngine* eng = session->run->engine.get();

  if (rt.dedup != nullptr) rt.dedup->SetHitSink(&session->dedup_hits);
  // The one run loop, time-sliced: the session ends with the same rounds
  // and counted-query trace as running it alone. The slice never runs past
  // the session's round cap (a resumed session may already be at it).
  const size_t slice_cap =
      session->rounds < max_rounds
          ? std::min(options_.slice_rounds, max_rounds - session->rounds)
          : 0;
  session->rounds += RunEngine(eng, {.budget = budget, .max_rounds = slice_cap},
                               session->run->wal.get());
  if (rt.dedup != nullptr) rt.dedup->SetHitSink(nullptr);

  FireEvent(SessionEventKind::kProgress, *session);
  // A progress trigger may have cancelled this very session.
  if (IsTerminal(session->state)) return true;

  if (eng->queries_used() >= budget || session->rounds >= max_rounds) {
    RemoveActive(session);
    Finalize(session, SessionState::kCompleted, {});
  } else {
    rr_cursor_ = idx + 1;
  }
  return true;
}

void EstimationService::RunUntilIdle() {
  while (RunSlice()) {
  }
}

void EstimationService::FireEvent(SessionEventKind kind,
                                  const Session& session) {
  // A flight recorder alone still wants the event stream; skip the build
  // only when nobody is listening at all.
  if (triggers_.size() == 0 && triggers_.flight_recorder() == nullptr) return;
  SessionEvent event;
  event.kind = kind;
  event.id = session.id;
  event.state = session.state;
  event.principal = session.spec.principal;
  event.queries_used = session.run != nullptr
                           ? session.run->engine->queries_used()
                           : session.queries;
  event.rounds = session.rounds;
  event.now_ms = NowMs();
  triggers_.Fire(event);
}

std::vector<SessionStatus> EstimationService::IntrospectSessions() const {
  std::vector<SessionStatus> rows;
  rows.reserve(sessions_.size());
  const double now_ms = NowMs();
  for (const auto& [id, session] : sessions_) {
    rows.push_back(Status(*session, now_ms));
  }
  std::sort(rows.begin(), rows.end(), ById);
  return rows;
}

std::vector<SessionStatus> EstimationService::RunningSessions() const {
  std::vector<SessionStatus> rows;
  rows.reserve(active_.size());
  const double now_ms = NowMs();
  for (const Session* session : active_) {
    rows.push_back(Status(*session, now_ms, /*last_point_only=*/true));
  }
  std::sort(rows.begin(), rows.end(), ById);
  return rows;
}

std::string EstimationService::diagnostics_json() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("sessions")
      .BeginObject()
      .KV("submitted", submitted_)
      .KV("completed", completed_)
      .KV("rejected", rejected_)
      .KV("cancelled", cancelled_)
      .KV("deadline_exceeded", deadline_exceeded_)
      .EndObject();
  json.KV("queued", static_cast<uint64_t>(queue_.size()))
      .KV("active", static_cast<uint64_t>(active_.size()))
      .KV("slices", ticks_);
  json.Key("admission")
      .BeginObject()
      .KV("policy", AdmissionPolicyName(queue_.options().policy))
      .KV("queue_capacity",
          static_cast<uint64_t>(queue_.options().queue_capacity))
      .KV("max_active", static_cast<uint64_t>(queue_.options().max_active))
      .EndObject();
  json.KV("dispatcher_workers",
          static_cast<uint64_t>(options_.dispatcher_workers));
  json.Key("dedup").BeginArray();
  for (const std::unique_ptr<BackendRuntime>& rt : runtimes_) {
    if (rt->dedup != nullptr) {
      json.RawValue(rt->dedup->ToJson());
    } else {
      json.ValueNull();
    }
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

}  // namespace service
}  // namespace lbsagg
