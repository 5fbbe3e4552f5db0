// Unit tests of the estimation service (service/): session lifecycle,
// admission control, cross-session dedup, deadlines, cancellation, and the
// event/trigger registry. The load-scale and worker-count determinism
// contracts live in sweep_determinism_test.cc; this file pins the per-call
// semantics.

#include "service/service.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "lbs/server.h"
#include "service/admission.h"
#include "service/dedup.h"
#include "service/event.h"
#include "transport/sharded_transport.h"
#include "transport/ticket_ring.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace service {
namespace {

const UsaScenario& SmallUsa() {
  static const UsaScenario usa = BuildUsaScenario({.num_pois = 1200});
  return usa;
}

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

// The solo oracle: the session's engine stack run alone against the server,
// no service, no dedup — what the spec's results must be bit-identical to.
std::vector<RunResult> RunSolo(const LbsServer& server, const SessionSpec& spec,
                               size_t max_rounds = 1u << 20) {
  ClientOptions copts;
  copts.k = spec.k;
  copts.budget = spec.budget;

  UniformSampler uniform(server.dataset().box());
  const QuerySampler* sampler =
      spec.sampler != nullptr ? spec.sampler : &uniform;

  std::unique_ptr<LbsClient> client;
  std::unique_ptr<engine::CellResolver> resolver;
  switch (spec.family) {
    case EstimatorFamily::kLr: {
      auto lr = std::make_unique<LrClient>(&server, copts);
      LrAggOptions opts = spec.lr;
      opts.seed = spec.seed;
      resolver = std::make_unique<engine::LrCellResolver>(lr.get(), sampler, opts);
      client = std::move(lr);
      break;
    }
    case EstimatorFamily::kLnr: {
      auto lnr = std::make_unique<LnrClient>(&server, copts);
      LnrAggOptions opts = spec.lnr;
      opts.seed = spec.seed;
      resolver =
          std::make_unique<engine::LnrCellResolver>(lnr.get(), sampler, opts);
      client = std::move(lnr);
      break;
    }
    case EstimatorFamily::kNno: {
      auto lr = std::make_unique<LrClient>(&server, copts);
      NnoOptions opts = spec.nno;
      opts.seed = spec.seed;
      resolver = std::make_unique<engine::NnoProbeResolver>(lr.get(), opts);
      client = std::move(lr);
      break;
    }
  }
  engine::EstimationEngine eng(resolver.get());
  if (spec.aggregates.empty()) {
    eng.AddAggregate(AggregateSpec::Count());
  } else {
    for (const AggregateSpec& agg : spec.aggregates) eng.AddAggregate(agg);
  }
  RunEngine(&eng, {.budget = spec.budget, .max_rounds = max_rounds});
  return EngineResults(eng);
}

void ExpectBitIdentical(const std::vector<RunResult>& a,
                        const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].queries, b[i].queries);
    EXPECT_TRUE(SameBits(a[i].final_estimate, b[i].final_estimate));
    ASSERT_EQ(a[i].trace.size(), b[i].trace.size());
    for (size_t j = 0; j < a[i].trace.size(); ++j) {
      EXPECT_EQ(a[i].trace[j].queries, b[i].trace[j].queries);
      EXPECT_TRUE(SameBits(a[i].trace[j].estimate, b[i].trace[j].estimate));
    }
  }
}

// --- Lifecycle --------------------------------------------------------------

TEST(ServiceLifecycle, SubmitRunPollCompletes) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 120;
  spec.seed = 9;
  const SessionId id = svc.Submit(spec);
  ASSERT_NE(id, kInvalidSessionId);
  EXPECT_EQ(svc.Poll(id).state, SessionState::kQueued);

  svc.RunUntilIdle();

  const SessionStatus done = svc.Poll(id);
  EXPECT_EQ(done.state, SessionState::kCompleted);
  EXPECT_GE(done.queries_used, spec.budget);
  ASSERT_EQ(done.results.size(), 1u);
  EXPECT_GT(done.results[0].trace.size(), 0u);
  EXPECT_GT(done.results[0].final_estimate, 0.0);
  EXPECT_EQ(done.rounds, done.results[0].trace.size());
  EXPECT_GE(done.end_ms, done.start_ms);
  EXPECT_EQ(svc.completed(), 1u);
}

TEST(ServiceLifecycle, PollUnknownSession) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});
  const SessionStatus missing = svc.Poll(12345);
  EXPECT_EQ(missing.id, kInvalidSessionId);
  EXPECT_EQ(missing.detail, "unknown session");
}

TEST(ServiceLifecycle, InvalidSpecsAreRejectedTyped) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionSpec zero_budget;
  zero_budget.budget = 0;
  EXPECT_EQ(svc.Poll(svc.Submit(zero_budget)).state, SessionState::kRejected);

  SessionSpec bad_backend;
  bad_backend.backend = 7;
  const SessionStatus status = svc.Poll(svc.Submit(bad_backend));
  EXPECT_EQ(status.state, SessionState::kRejected);
  EXPECT_EQ(status.detail, "unknown backend");
  EXPECT_EQ(svc.rejected(), 2u);
}

TEST(ServiceLifecycle, MultiAggregateSessionSharesOneBudget) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionSpec spec;
  spec.family = EstimatorFamily::kLr;
  spec.budget = 250;
  spec.seed = 4;
  spec.aggregates = {
      AggregateSpec::Count(),
      AggregateSpec::Sum(usa.columns.rating, "SUM(rating)"),
      AggregateSpec::Avg(usa.columns.rating, "AVG(rating)"),
  };
  const SessionId id = svc.Submit(spec);
  svc.RunUntilIdle();

  const SessionStatus done = svc.Poll(id);
  ASSERT_EQ(done.results.size(), 3u);
  // All three aggregates report the same (single) query budget.
  EXPECT_EQ(done.results[0].queries, done.results[2].queries);
  ExpectBitIdentical(done.results, RunSolo(server, spec));
}

TEST(ServiceLifecycle, ForgetDropsTerminalSessionsOnly) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionSpec spec;
  spec.budget = 500;
  const SessionId id = svc.Submit(spec);
  EXPECT_FALSE(svc.Forget(id));  // still queued
  ASSERT_TRUE(svc.RunSlice());
  EXPECT_FALSE(svc.Forget(id));  // running
  svc.RunUntilIdle();

  EXPECT_TRUE(svc.Forget(id));
  EXPECT_FALSE(svc.Forget(id));  // gone
  EXPECT_EQ(svc.Poll(id).id, kInvalidSessionId);
  EXPECT_EQ(svc.completed(), 1u);  // tallies survive the record
}

// --- Solo equality & cross-session dedup ------------------------------------

TEST(ServiceDedup, ConcurrentSessionsMatchSoloRunsAndSaveQueries) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  ServiceOptions options;
  options.admission.max_active = 4;
  options.slice_rounds = 1;  // interleave sessions round by round
  EstimationService svc({{.meta = &server}}, options);

  // Two identical NNO sessions (same seed → same query stream: the dedup
  // best case) plus an LR session sharing the same hot region.
  std::vector<SessionSpec> specs(3);
  specs[0].family = EstimatorFamily::kNno;
  specs[0].budget = 150;
  specs[0].seed = 11;
  specs[1] = specs[0];
  specs[2].family = EstimatorFamily::kLr;
  specs[2].budget = 150;
  specs[2].seed = 11;

  std::vector<SessionId> ids;
  for (const SessionSpec& spec : specs) ids.push_back(svc.Submit(spec));
  svc.RunUntilIdle();

  uint64_t session_hits = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const SessionStatus done = svc.Poll(ids[i]);
    ASSERT_EQ(done.state, SessionState::kCompleted);
    // Mirror charging: the session's entire result set is bit-identical to
    // running it alone, dedup notwithstanding.
    ExpectBitIdentical(done.results, RunSolo(server, specs[i]));
    session_hits += done.dedup_hits;
  }

  ASSERT_NE(svc.dedup(), nullptr);
  const DedupStats stats = svc.dedup()->Stats();
  // The twin session's queries are all registry hits.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(session_hits, stats.hits);
  EXPECT_EQ(stats.lookups, stats.hits + stats.entries);
}

TEST(ServiceDedup, DisabledDedupStillMatchesSolo) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  ServiceOptions options;
  options.dedup = false;
  options.admission.max_active = 2;
  EstimationService svc({{.meta = &server}}, options);
  EXPECT_EQ(svc.dedup(), nullptr);

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 100;
  spec.seed = 3;
  const SessionId a = svc.Submit(spec);
  const SessionId b = svc.Submit(spec);
  svc.RunUntilIdle();
  ExpectBitIdentical(svc.Poll(a).results, RunSolo(server, spec));
  ExpectBitIdentical(svc.Poll(b).results, RunSolo(server, spec));
  EXPECT_EQ(svc.Poll(a).dedup_hits, 0u);
}

TEST(ServiceDedup, SecondBackendHasItsOwnRegistry) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server_a(usa.dataset.get(), {.max_k = 5});
  LbsServer server_b(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server_a}, {.meta = &server_b}});

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 80;
  spec.seed = 5;
  svc.Submit(spec);
  spec.backend = 1;
  const SessionId on_b = svc.Submit(spec);
  svc.RunUntilIdle();

  EXPECT_EQ(svc.Poll(on_b).state, SessionState::kCompleted);
  ASSERT_EQ(svc.num_backends(), 2u);
  // Same query streams, different registries: no cross-backend sharing.
  EXPECT_EQ(svc.dedup(0)->Stats().hits, 0u);
  EXPECT_EQ(svc.dedup(1)->Stats().hits, 0u);
  EXPECT_GT(svc.dedup(1)->Stats().entries, 0u);
}

// A DedupTransport over a counting inner transport: hits never reach the
// backend, and in-flight followers get the owner's page.
class CountingTransport final : public LbsTransport {
 public:
  explicit CountingTransport(const LbsServer* server) : server_(server) {}

  TransportPlan Prepare(const Vec2&, int) override {
    ++prepares;
    TransportPlan plan;
    plan.ticket = next_ticket_++;
    return plan;
  }
  TransportReply Fulfill(const TransportPlan&, const Vec2& q, int k,
                         const TupleFilter& filter) const override {
    ++fulfills;
    return {server_->Query(q, k, filter), TransportOutcome::kOk, 1, 0.0};
  }

  int prepares = 0;
  mutable int fulfills = 0;

 private:
  const LbsServer* server_;
  uint64_t next_ticket_ = 0;
};

TEST(ServiceDedup, TransportUnitMirrorCharging) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CountingTransport inner(&server);
  QueryDedupRegistry registry;
  DedupTransport wire(&inner, &registry);

  const Vec2 q{1000.0, 800.0};
  const TransportReply first = wire.Query(q, 3, nullptr);
  const TransportReply second = wire.Query(q, 3, nullptr);
  EXPECT_EQ(inner.prepares, 1);
  EXPECT_EQ(inner.fulfills, 1);
  EXPECT_EQ(first.attempts, 1);
  EXPECT_EQ(second.attempts, 1);
  ASSERT_EQ(first.hits.size(), second.hits.size());
  for (size_t i = 0; i < first.hits.size(); ++i) {
    EXPECT_EQ(first.hits[i].tuple_id, second.hits[i].tuple_id);
  }

  // A different k is a different question.
  (void)wire.Query(q, 5, nullptr);
  EXPECT_EQ(inner.prepares, 2);

  const DedupStats stats = registry.Stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

void ExpectSameReply(const TransportReply& a, const TransportReply& b,
                     size_t i) {
  EXPECT_EQ(a.outcome, b.outcome) << "reply " << i;
  EXPECT_EQ(a.attempts, b.attempts) << "reply " << i;
  EXPECT_EQ(a.latency_ms, b.latency_ms) << "reply " << i;
  ASSERT_EQ(a.hits.size(), b.hits.size()) << "reply " << i;
  for (size_t j = 0; j < a.hits.size(); ++j) {
    EXPECT_EQ(a.hits[j].tuple_id, b.hits[j].tuple_id) << "reply " << i;
    EXPECT_EQ(a.hits[j].distance, b.hits[j].distance) << "reply " << i;
  }
}

// More plans in flight than the ticket ring's first capacity, fulfilled
// newest first: every reply, and the registry's tallies, match a second
// wire that fulfils each plan as soon as it is prepared. Half the plans are
// hits on pages published earlier, so follower decisions ride the ring too.
TEST(ServiceDedup, TicketRingFulfilsOutOfOrder) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  const size_t n = 3 * TicketRing<int>::kFirstCapacity;
  Rng rng(71);
  std::vector<Vec2> published;
  std::vector<Vec2> queries;
  for (size_t i = 0; i < n; ++i) {
    published.push_back(usa.dataset->box().SamplePoint(rng));
    queries.push_back(published.back());
    queries.push_back(usa.dataset->box().SamplePoint(rng));
  }

  CountingTransport in_order_inner(&server);
  QueryDedupRegistry in_order_registry;
  DedupTransport in_order(&in_order_inner, &in_order_registry);
  CountingTransport reversed_inner(&server);
  QueryDedupRegistry reversed_registry;
  DedupTransport reversed(&reversed_inner, &reversed_registry);
  for (const Vec2& q : published) {
    (void)in_order.Query(q, 3, nullptr);
    (void)reversed.Query(q, 3, nullptr);
  }

  std::vector<TransportReply> expected;
  for (const Vec2& q : queries) {
    expected.push_back(in_order.Query(q, 3, nullptr));
  }
  std::vector<TransportPlan> plans;
  for (const Vec2& q : queries) plans.push_back(reversed.Prepare(q, 3));
  for (size_t i = queries.size(); i-- > 0;) {
    ExpectSameReply(reversed.Fulfill(plans[i], queries[i], 3, nullptr),
                    expected[i], i);
  }
  const DedupStats a = in_order_registry.Stats();
  const DedupStats b = reversed_registry.Stats();
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(b.hits, n);
  EXPECT_EQ(reversed_inner.fulfills, static_cast<int>(2 * n));
}

TEST(ServiceDedup, FulfilTwiceOrUnpreparedDies) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CountingTransport inner(&server);
  QueryDedupRegistry registry;
  DedupTransport wire(&inner, &registry);
  const Vec2 q{1000.0, 800.0};
  const TransportPlan plan = wire.Prepare(q, 3);
  (void)wire.Fulfill(plan, q, 3, nullptr);
  EXPECT_DEATH((void)wire.Fulfill(plan, q, 3, nullptr),
               "Fulfill without \\(or after\\) a matching Prepare");
  TransportPlan never;
  never.ticket = plan.ticket + 1;
  EXPECT_DEATH((void)wire.Fulfill(never, q, 3, nullptr),
               "Fulfill without \\(or after\\) a matching Prepare");
}

// A follower fulfilled on another thread before its owner blocks until the
// owner publishes, then answers the owner's page.
TEST(ServiceDedup, FollowerFulfilledFirstWaitsForOwnersPage) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CountingTransport inner(&server);
  QueryDedupRegistry registry;
  DedupTransport wire(&inner, &registry);
  const Vec2 q{1000.0, 800.0};
  const TransportPlan owner = wire.Prepare(q, 3);
  const TransportPlan follower = wire.Prepare(q, 3);

  std::atomic<bool> answered{false};
  TransportReply followed;
  std::thread thread([&] {
    followed = wire.Fulfill(follower, q, 3, nullptr);
    answered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(answered.load()) << "the follower answered before its owner";
  const TransportReply owned = wire.Fulfill(owner, q, 3, nullptr);
  thread.join();
  EXPECT_TRUE(answered.load());
  EXPECT_EQ(inner.fulfills, 1);
  EXPECT_FALSE(owned.hits.empty());
  ExpectSameReply(followed, owned, 0);
}

// --- Admission control ------------------------------------------------------

TEST(ServiceAdmission, QueueOverflowShedsTyped) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  ServiceOptions options;
  options.admission.queue_capacity = 2;
  options.admission.max_active = 1;
  EstimationService svc({{.meta = &server}}, options);

  SessionSpec spec;
  spec.budget = 40;
  const SessionId a = svc.Submit(spec);
  const SessionId b = svc.Submit(spec);
  const SessionId c = svc.Submit(spec);  // over capacity
  EXPECT_EQ(svc.Poll(a).state, SessionState::kQueued);
  EXPECT_EQ(svc.Poll(b).state, SessionState::kQueued);
  const SessionStatus shed = svc.Poll(c);
  EXPECT_EQ(shed.state, SessionState::kRejected);
  EXPECT_EQ(shed.detail, "admission queue full");
  EXPECT_EQ(svc.rejected(), 1u);

  svc.RunUntilIdle();
  EXPECT_EQ(svc.Poll(a).state, SessionState::kCompleted);
  EXPECT_EQ(svc.Poll(b).state, SessionState::kCompleted);
  EXPECT_EQ(svc.Poll(c).state, SessionState::kRejected);
}

TEST(ServiceAdmission, FifoStartsInArrivalOrder) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  ServiceOptions options;
  options.admission.max_active = 1;
  EstimationService svc({{.meta = &server}}, options);

  std::vector<SessionId> started;
  svc.triggers().Add(SessionEventKind::kStarted,
                     [&](const SessionEvent& e) { started.push_back(e.id); });

  SessionSpec spec;
  spec.budget = 30;
  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    spec.seed = static_cast<uint64_t>(i + 1);
    ids.push_back(svc.Submit(spec));
  }
  svc.RunUntilIdle();
  EXPECT_EQ(started, ids);
}

TEST(ServiceAdmission, FairShareInterleavesPrincipals) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  ServiceOptions options;
  options.admission.policy = AdmissionPolicy::kFairShare;
  options.admission.max_active = 1;
  EstimationService svc({{.meta = &server}}, options);

  std::vector<std::string> started;
  svc.triggers().Add(SessionEventKind::kStarted, [&](const SessionEvent& e) {
    started.push_back(e.principal);
  });

  SessionSpec spec;
  spec.budget = 30;
  spec.principal = "heavy";
  svc.Submit(spec);
  svc.Submit(spec);
  svc.Submit(spec);
  spec.principal = "light";
  svc.Submit(spec);

  svc.RunUntilIdle();
  // The light principal is served after one heavy session, not after three.
  const std::vector<std::string> want = {"heavy", "light", "heavy", "heavy"};
  EXPECT_EQ(started, want);
}

TEST(ServiceAdmission, FairShareQueueUnit) {
  AdmissionQueue queue({.policy = AdmissionPolicy::kFairShare,
                        .queue_capacity = 8,
                        .max_active = 1});
  EXPECT_TRUE(queue.TryEnqueue(1, "a"));
  EXPECT_TRUE(queue.TryEnqueue(2, "a"));
  EXPECT_TRUE(queue.TryEnqueue(3, "b"));
  EXPECT_TRUE(queue.TryEnqueue(4, "c"));
  EXPECT_TRUE(queue.Remove(2));
  EXPECT_FALSE(queue.Remove(2));
  EXPECT_EQ(queue.PopNext(), 1u);
  EXPECT_EQ(queue.PopNext(), 3u);
  EXPECT_EQ(queue.PopNext(), 4u);
  EXPECT_EQ(queue.PopNext(), kInvalidSessionId);
  EXPECT_TRUE(queue.empty());
}

// --- Cancel & deadlines -----------------------------------------------------

TEST(ServiceCancel, QueuedAndRunningSessions) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  ServiceOptions options;
  options.admission.max_active = 1;
  EstimationService svc({{.meta = &server}}, options);

  SessionSpec spec;
  spec.budget = 500;
  const SessionId running = svc.Submit(spec);
  const SessionId queued = svc.Submit(spec);

  // A few slices: the first session is mid-run, the second still queued.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(svc.RunSlice());
  ASSERT_EQ(svc.Poll(running).state, SessionState::kRunning);
  ASSERT_EQ(svc.Poll(queued).state, SessionState::kQueued);

  EXPECT_TRUE(svc.Cancel(queued));
  const SessionStatus q = svc.Poll(queued);
  EXPECT_EQ(q.state, SessionState::kCancelled);
  EXPECT_TRUE(q.results.empty());

  EXPECT_TRUE(svc.Cancel(running));
  const SessionStatus r = svc.Poll(running);
  EXPECT_EQ(r.state, SessionState::kCancelled);
  ASSERT_EQ(r.results.size(), 1u);
  EXPECT_GT(r.results[0].trace.size(), 0u);  // partial results survive

  EXPECT_FALSE(svc.Cancel(running));  // already terminal
  EXPECT_FALSE(svc.Cancel(999));      // unknown
  EXPECT_FALSE(svc.RunSlice());       // nothing left
  EXPECT_EQ(svc.cancelled(), 2u);
}

TEST(ServiceDeadline, VirtualClockDeadlineYieldsPartialResults) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  ShardedTransportOptions topts;
  topts.latency.fixed_ms = 10.0;  // every backend query costs 10 virtual ms
  ShardedTransport wire(&server, topts);

  ServiceOptions options;
  options.clock_ms = [&wire] { return wire.VirtualNowMs(); };
  EstimationService svc({{.meta = &server, .wire = &wire}}, options);

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 100000;  // deadline, not budget, ends this session
  spec.deadline_ms = 400;
  const SessionId id = svc.Submit(spec);
  svc.RunUntilIdle();

  const SessionStatus done = svc.Poll(id);
  EXPECT_EQ(done.state, SessionState::kDeadlineExceeded);
  ASSERT_EQ(done.results.size(), 1u);
  EXPECT_GT(done.results[0].trace.size(), 0u);
  EXPECT_LT(done.queries_used, spec.budget);
  EXPECT_GT(done.latency_ms, spec.deadline_ms);
  EXPECT_EQ(svc.deadline_exceeded(), 1u);
}

TEST(ServiceDeadline, QueuedSessionCanExpireBeforeStarting) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  ShardedTransportOptions topts;
  topts.latency.fixed_ms = 10.0;
  ShardedTransport wire(&server, topts);

  ServiceOptions options;
  options.clock_ms = [&wire] { return wire.VirtualNowMs(); };
  options.admission.max_active = 1;
  EstimationService svc({{.meta = &server, .wire = &wire}}, options);

  SessionSpec head;
  head.family = EstimatorFamily::kNno;
  head.budget = 200;
  const SessionId first = svc.Submit(head);

  SessionSpec tail = head;
  tail.deadline_ms = 50;  // the head session alone takes far longer
  const SessionId starved = svc.Submit(tail);

  svc.RunUntilIdle();
  EXPECT_EQ(svc.Poll(first).state, SessionState::kCompleted);
  const SessionStatus expired = svc.Poll(starved);
  EXPECT_EQ(expired.state, SessionState::kDeadlineExceeded);
  EXPECT_TRUE(expired.results.empty());  // never ran
  EXPECT_EQ(expired.start_ms, -1);
}

// --- Events -----------------------------------------------------------------

TEST(ServiceEvents, LifecycleFiresInOrder) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  std::vector<SessionEventKind> kinds;
  svc.triggers().AddAll(
      [&](const SessionEvent& e) { kinds.push_back(e.kind); });

  SessionSpec spec;
  spec.budget = 30;
  const SessionId id = svc.Submit(spec);
  svc.RunUntilIdle();

  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds.front(), SessionEventKind::kSubmitted);
  EXPECT_EQ(kinds[1], SessionEventKind::kStarted);
  EXPECT_EQ(kinds[kinds.size() - 2], SessionEventKind::kProgress);
  EXPECT_EQ(kinds.back(), SessionEventKind::kFinished);

  const SessionStatus done = svc.Poll(id);
  EXPECT_EQ(done.state, SessionState::kCompleted);
  // One progress event per scheduler slice; slice_rounds=1 → one per round.
  EXPECT_EQ(kinds.size() - 3, done.rounds);
}

TEST(ServiceEvents, FinishedTriggerSeesFinalCounts) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionEvent finished;
  svc.triggers().Add(SessionEventKind::kFinished,
                     [&](const SessionEvent& e) { finished = e; });

  SessionSpec spec;
  spec.budget = 50;
  spec.principal = "tenant-7";
  const SessionId id = svc.Submit(spec);
  svc.RunUntilIdle();

  const SessionStatus done = svc.Poll(id);
  EXPECT_EQ(finished.id, id);
  EXPECT_EQ(finished.state, SessionState::kCompleted);
  EXPECT_EQ(finished.principal, "tenant-7");
  EXPECT_EQ(finished.queries_used, done.queries_used);
  EXPECT_EQ(finished.rounds, done.rounds);
}

TEST(ServiceEvents, RejectionFiresRejectedEvent) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  ServiceOptions options;
  options.admission.queue_capacity = 0;
  EstimationService svc({{.meta = &server}}, options);

  int rejected = 0;
  svc.triggers().Add(SessionEventKind::kRejected,
                     [&](const SessionEvent&) { ++rejected; });
  SessionSpec spec;
  spec.budget = 10;
  svc.Submit(spec);
  EXPECT_EQ(rejected, 1);
}

TEST(TriggerRegistry, RemoveAndReentrantMutation) {
  TriggerRegistry registry;
  std::vector<int> fired;

  const auto h1 = registry.Add(SessionEventKind::kProgress,
                               [&](const SessionEvent&) { fired.push_back(1); });
  TriggerRegistry::Handle h2 = TriggerRegistry::kInvalidHandle;
  h2 = registry.Add(SessionEventKind::kProgress, [&](const SessionEvent&) {
    fired.push_back(2);
    registry.Remove(h2);  // self-removal mid-fire
  });
  registry.AddAll([&](const SessionEvent&) { fired.push_back(3); });
  EXPECT_EQ(registry.size(), 3u);

  SessionEvent progress;
  progress.kind = SessionEventKind::kProgress;
  registry.Fire(progress);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));

  registry.Fire(progress);  // h2 gone now
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 1, 3}));
  EXPECT_EQ(registry.size(), 2u);

  EXPECT_TRUE(registry.Remove(h1));
  EXPECT_FALSE(registry.Remove(h1));

  SessionEvent finished;
  finished.kind = SessionEventKind::kFinished;
  registry.Fire(finished);  // only the AddAll trigger matches
  EXPECT_EQ(fired.back(), 3);
}

// A trigger whose capture std::function stores inline (one pointer) adds
// enough triggers to reallocate the registry, then reads its capture: it must
// still be alive, and the added same-kind triggers run in this very fire.
TEST(TriggerRegistry, TriggerAddingTriggersSurvivesReallocation) {
  struct State {
    TriggerRegistry registry;
    std::vector<int> fired;
  };
  State state;
  State* s = &state;
  s->registry.Add(SessionEventKind::kProgress, [s](const SessionEvent&) {
    for (int i = 1; i <= 8; ++i) {
      s->registry.Add(SessionEventKind::kProgress,
                      [s, i](const SessionEvent&) { s->fired.push_back(i); });
    }
    s->fired.push_back(0);  // reads the capture after the reallocations
  });

  SessionEvent progress;
  progress.kind = SessionEventKind::kProgress;
  s->registry.Fire(progress);
  EXPECT_EQ(state.fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(state.registry.size(), 9u);
}

// A trigger whose capture std::function stores on the heap (a std::string)
// removes itself, then reads its capture: it must still be alive, and the
// removed trigger never fires again.
TEST(TriggerRegistry, SelfRemovingTriggerSurvivesItsRemoval) {
  TriggerRegistry registry;
  std::vector<std::string> fired;
  TriggerRegistry::Handle self = TriggerRegistry::kInvalidHandle;
  const std::string label = "a capture longer than the small-string buffer";
  self = registry.Add(SessionEventKind::kProgress,
                      [&registry, &self, &fired, label](const SessionEvent&) {
                        EXPECT_TRUE(registry.Remove(self));
                        fired.push_back(label);  // reads the capture
                      });

  SessionEvent progress;
  progress.kind = SessionEventKind::kProgress;
  registry.Fire(progress);
  registry.Fire(progress);
  EXPECT_EQ(fired, (std::vector<std::string>{label}));
  EXPECT_EQ(registry.size(), 0u);
}

// --- Diagnostics ------------------------------------------------------------

// --- Resume at the round cap --------------------------------------------------

// A session resumed with max_rounds at or below its recovered round count is
// already done: each slice's round cap is what remains of max_rounds, and it
// must not wrap around below zero into a fresh run.
TEST(ServiceResume, RoundCapAtRecoveredRoundsRunsNoFurtherRound) {
  LbsServer server(SmallUsa().dataset.get(), {.max_k = 5});
  const std::string dir = ::testing::TempDir() + "service_test_round_cap";
  std::filesystem::remove_all(dir);

  SessionSpec spec;
  spec.family = EstimatorFamily::kLr;
  spec.budget = 400;
  spec.seed = 5;
  spec.max_rounds = 10;
  spec.wal_dir = dir;
  spec.checkpoint_every_rounds = 4;
  SessionStatus first;
  {
    EstimationService svc({{.meta = &server}});
    const SessionId id = svc.Submit(spec);
    svc.RunUntilIdle();
    first = svc.Poll(id);
  }
  ASSERT_EQ(first.state, SessionState::kCompleted);
  ASSERT_EQ(first.rounds, 10u);
  ASSERT_LT(first.queries_used, spec.budget);

  for (const size_t cap : {size_t{10}, size_t{6}}) {
    EstimationService svc({{.meta = &server}});
    SessionSpec resumed = spec;
    resumed.wal_dir.clear();
    resumed.resume_from = dir;
    resumed.max_rounds = cap;
    const SessionId id = svc.Submit(resumed);
    svc.RunUntilIdle();
    const SessionStatus status = svc.Poll(id);
    ASSERT_EQ(status.state, SessionState::kCompleted) << status.detail;
    EXPECT_EQ(status.rounds, 10u) << "max_rounds=" << cap;
    EXPECT_EQ(status.queries_used, first.queries_used) << "max_rounds=" << cap;
    ASSERT_EQ(status.results.size(), 1u);
    EXPECT_EQ(status.results[0].trace.size(), 10u) << "max_rounds=" << cap;
  }
}

TEST(ServiceDiagnostics, JsonCarriesTalliesAndDedup) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionSpec spec;
  spec.budget = 30;
  svc.Submit(spec);
  svc.Submit(spec);
  svc.RunUntilIdle();

  const std::string json = svc.diagnostics_json();
  EXPECT_NE(json.find("\"submitted\":2"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"policy\":\"fifo\""), std::string::npos);
  // A hit is counted once: the dedup entry carries `hits` and no second
  // tally of the same number.
  EXPECT_NE(json.find("\"dedup\":[{\"entries\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hits\":"), std::string::npos);
  EXPECT_EQ(json.find("saved"), std::string::npos);
}

}  // namespace
}  // namespace service
}  // namespace lbsagg
