// Behavior of the transport layer: the direct in-process wire, the
// simulated policy pipeline (latency, token bucket, fault injection,
// retries), per-attempt budget accounting (§2.1), and metrics.

#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "transport/metrics.h"
#include "transport/policies.h"
#include "transport/simulated_transport.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

Dataset MakeDataset(int n, uint64_t seed) {
  Schema schema;
  schema.AddColumn("score", AttrType::kDouble);
  Dataset d(kBox, schema);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    d.Add(kBox.SamplePoint(rng), {rng.Uniform(1.0, 5.0)});
  }
  return d;
}

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

// ---------------------------------------------------------------------------
// DirectTransport

TEST(DirectTransport, MatchesServerExactly) {
  const Dataset dataset = MakeDataset(200, 1);
  const LbsServer server(&dataset, {.max_k = 10});
  DirectTransport transport(&server);
  for (const Vec2& q : RandomPoints(50, 2)) {
    const TransportReply reply = transport.Query(q, 5, nullptr);
    EXPECT_EQ(reply.outcome, TransportOutcome::kOk);
    EXPECT_EQ(reply.attempts, 1);
    EXPECT_EQ(reply.latency_ms, 0.0);
    const std::vector<ServerHit> direct = server.Query(q, 5, nullptr);
    ASSERT_EQ(reply.hits.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(reply.hits[i].tuple_id, direct[i].tuple_id);
      EXPECT_EQ(reply.hits[i].distance, direct[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Policies

TEST(TokenBucket, RefillsAtConfiguredRate) {
  TokenBucket bucket({.capacity = 2.0, .refill_per_sec = 10.0});  // 100 ms
  EXPECT_EQ(bucket.AcquireAt(0.0), 0.0);   // burst token 1
  EXPECT_EQ(bucket.AcquireAt(0.0), 0.0);   // burst token 2
  EXPECT_EQ(bucket.AcquireAt(0.0), 100.0);  // empty: wait one refill
  EXPECT_EQ(bucket.AcquireAt(0.0), 200.0);  // queued behind the previous
  EXPECT_EQ(bucket.AcquireAt(500.0), 500.0);  // refilled by then
}

TEST(TokenBucket, DisabledPassesThrough) {
  TokenBucket bucket({.capacity = 0.0, .refill_per_sec = 1.0});
  EXPECT_FALSE(bucket.enabled());
  EXPECT_EQ(bucket.AcquireAt(42.0), 42.0);
}

TEST(FaultInjector, DrawsArePureFunctions) {
  const FaultOptions opts{.transient_error_rate = 0.3,
                          .timeout_rate = 0.2,
                          .truncate_rate = 0.1};
  const FaultInjector a(opts, 99);
  const FaultInjector b(opts, 99);
  int faults = 0;
  for (uint64_t ticket = 0; ticket < 500; ++ticket) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const AttemptFault fa = a.Draw(ticket, attempt);
      const AttemptFault fb = b.Draw(ticket, attempt);
      EXPECT_EQ(fa.kind, fb.kind);
      EXPECT_EQ(fa.truncate_u, fb.truncate_u);
      if (fa.kind != AttemptFault::Kind::kNone) ++faults;
    }
  }
  // ~60% fault rate over 1500 draws.
  EXPECT_GT(faults, 700);
  EXPECT_LT(faults, 1100);
}

TEST(LatencyModel, LognormalIsDeterministicAndClamped) {
  LatencyOptions opts;
  opts.kind = LatencyOptions::Kind::kLognormal;
  opts.lognormal_median_ms = 50.0;
  opts.min_ms = 5.0;
  const LatencyModel model(opts);
  double total = 0.0;
  for (uint64_t ticket = 0; ticket < 1000; ++ticket) {
    const double ms = model.Sample(7, ticket, 1);
    EXPECT_EQ(ms, model.Sample(7, ticket, 1));
    EXPECT_GE(ms, 5.0);
    total += ms;
  }
  // Lognormal mean = median * exp(sigma^2/2) ≈ 57 ms; generous bounds.
  EXPECT_GT(total / 1000, 30.0);
  EXPECT_LT(total / 1000, 120.0);
}

// ---------------------------------------------------------------------------
// SimulatedTransport

TEST(SimulatedTransport, CleanNetworkBehavesLikeDirect) {
  const Dataset dataset = MakeDataset(200, 5);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransport transport(&server, {});  // no faults, no rate limit
  for (const Vec2& q : RandomPoints(30, 6)) {
    const TransportReply reply = transport.Query(q, 5, nullptr);
    EXPECT_EQ(reply.outcome, TransportOutcome::kOk);
    EXPECT_EQ(reply.attempts, 1);
    EXPECT_GT(reply.latency_ms, 0.0);  // latency is simulated even when clean
    const std::vector<ServerHit> direct = server.Query(q, 5, nullptr);
    ASSERT_EQ(reply.hits.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(reply.hits[i].tuple_id, direct[i].tuple_id);
    }
  }
  const TransportMetrics m = transport.Metrics();
  EXPECT_EQ(m.requests, 30u);
  EXPECT_EQ(m.attempts, 30u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.outcomes[static_cast<int>(TransportOutcome::kOk)], 30u);
}

TEST(SimulatedTransport, AlwaysFailingGivesUpAfterMaxAttempts) {
  const Dataset dataset = MakeDataset(50, 7);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransportOptions topts;
  topts.faults.transient_error_rate = 1.0;
  topts.retry.max_attempts = 3;
  SimulatedTransport transport(&server, topts);

  const TransportReply reply = transport.Query(kBox.Center(), 5, nullptr);
  EXPECT_EQ(reply.outcome, TransportOutcome::kTransientError);
  EXPECT_EQ(reply.attempts, 3);
  EXPECT_TRUE(reply.hits.empty());  // undelivered → empty page
  EXPECT_FALSE(Delivered(reply.outcome));

  const TransportMetrics m = transport.Metrics();
  EXPECT_EQ(m.requests, 1u);
  EXPECT_EQ(m.attempts, 3u);
  EXPECT_EQ(m.retries, 2u);
  EXPECT_EQ(m.attempt_transient_errors, 3u);
}

TEST(SimulatedTransport, RetryBudgetFailsFastOnceSpent) {
  const Dataset dataset = MakeDataset(50, 8);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransportOptions topts;
  topts.faults.timeout_rate = 1.0;
  topts.retry.max_attempts = 4;
  topts.retry.retry_budget = 5;
  SimulatedTransport transport(&server, topts);

  // First queries burn the retry budget (3 retries each)...
  const TransportReply first = transport.Query(kBox.Center(), 5, nullptr);
  EXPECT_EQ(first.attempts, 4);
  EXPECT_EQ(first.outcome, TransportOutcome::kTimeout);
  const TransportReply second = transport.Query(kBox.Center(), 5, nullptr);
  EXPECT_EQ(second.attempts, 3);  // budget ran out mid-query
  EXPECT_EQ(second.outcome, TransportOutcome::kFatal);
  // ...after which failing queries are abandoned on their first attempt.
  const TransportReply third = transport.Query(kBox.Center(), 5, nullptr);
  EXPECT_EQ(third.attempts, 1);
  EXPECT_EQ(third.outcome, TransportOutcome::kFatal);
}

TEST(SimulatedTransport, TruncatedPageKeepsStrictPrefix) {
  const Dataset dataset = MakeDataset(200, 9);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransportOptions topts;
  topts.faults.truncate_rate = 1.0;
  SimulatedTransport transport(&server, topts);

  for (const Vec2& q : RandomPoints(20, 10)) {
    const std::vector<ServerHit> full = server.Query(q, 5, nullptr);
    const TransportReply reply = transport.Query(q, 5, nullptr);
    EXPECT_EQ(reply.outcome, TransportOutcome::kTruncated);
    EXPECT_EQ(reply.attempts, 1);  // truncation is not retried
    ASSERT_LT(reply.hits.size(), full.size());
    for (size_t i = 0; i < reply.hits.size(); ++i) {
      EXPECT_EQ(reply.hits[i].tuple_id, full[i].tuple_id);  // prefix
    }
  }
}

TEST(SimulatedTransport, TokenBucketThrottlesAndAdvancesVirtualClock) {
  const Dataset dataset = MakeDataset(50, 11);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransportOptions topts;
  topts.rate_limit = {.capacity = 2.0, .refill_per_sec = 10.0};
  topts.latency.fixed_ms = 1.0;
  topts.latency.min_ms = 1.0;
  SimulatedTransport transport(&server, topts);

  for (int i = 0; i < 20; ++i) transport.Query(kBox.Center(), 5, nullptr);
  const TransportMetrics m = transport.Metrics();
  EXPECT_GT(m.throttle_events, 0u);
  EXPECT_GT(m.throttle_wait_ms, 0.0);
  // 20 attempts through a 10/s bucket with burst 2: >= ~1.5 s of quota time.
  EXPECT_GT(transport.VirtualNowMs(), 1500.0);
}

// ---------------------------------------------------------------------------
// §2.1 accounting: every interface attempt charges the client's budget.

TEST(TransportAccounting, ClientChargesOncePerAttempt) {
  const Dataset dataset = MakeDataset(200, 12);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransportOptions topts;
  topts.faults.transient_error_rate = 0.4;
  topts.retry.max_attempts = 4;
  SimulatedTransport transport(&server, topts);

  LrClient client(&server, {.k = 5}, &transport);
  for (const Vec2& q : RandomPoints(100, 13)) client.Query(q);

  const TransportMetrics m = transport.Metrics();
  EXPECT_EQ(m.requests, 100u);
  EXPECT_GT(m.attempts, m.requests);  // faults at 40% must retry sometimes
  EXPECT_EQ(client.queries_used(), m.attempts);
}

// A fixed probe schedule standing in for an estimator: one query per
// round, so the budget must trip on attempts, not logical queries.
class ProbeScheduleResolver : public engine::CellResolver {
 public:
  ProbeScheduleResolver(LrClient* client, std::vector<Vec2> points)
      : client_(client), points_(std::move(points)) {}

  void ResolveRound(const engine::EvidenceDemand&,
                    engine::EvidenceStore* store) override {
    store->BeginRound(points_[next_]);
    client_->Query(points_[next_++]);
    store->EndRound(client_->queries_used());
  }
  const LbsClient& client() const override { return *client_; }
  uint64_t queries_used() const override { return client_->queries_used(); }
  const char* name() const override { return "probe_schedule"; }
  std::string diagnostics_json() const override { return "{}"; }
  void SaveState(std::string*) const override {}
  bool RestoreState(std::string_view) override { return false; }

 private:
  LrClient* client_;
  std::vector<Vec2> points_;
  size_t next_ = 0;
};

TEST(TransportAccounting, RunWithBudgetMetersAttempts) {
  const Dataset dataset = MakeDataset(200, 14);
  const LbsServer server(&dataset, {.max_k = 10});
  SimulatedTransportOptions topts;
  topts.faults.transient_error_rate = 0.5;
  topts.retry.max_attempts = 4;
  SimulatedTransport transport(&server, topts);

  constexpr uint64_t kBudget = 60;
  LrClient client(&server, {.k = 5, .budget = kBudget}, &transport);
  ProbeScheduleResolver resolver(&client, RandomPoints(1000, 15));
  engine::EstimationEngine eng(&resolver);
  eng.AddAggregate(AggregateSpec::Count());
  RunEngine(&eng, {.budget = kBudget});
  const RunResult result = EngineResults(eng)[0];

  const TransportMetrics m = transport.Metrics();
  EXPECT_EQ(result.queries, m.attempts);
  EXPECT_LT(m.requests, m.attempts);
  // Soft budget: the final round may overshoot by at most one query's
  // attempts; earlier rounds stay under.
  EXPECT_GE(result.queries, kBudget);
  EXPECT_LT(result.queries,
            kBudget + static_cast<uint64_t>(topts.retry.max_attempts));
  // Fewer logical rounds than the budget: retries ate part of it.
  EXPECT_LT(result.trace.size(), static_cast<size_t>(kBudget));
}

// ---------------------------------------------------------------------------
// Metrics

TEST(TransportMetrics, JsonAndTableRender) {
  const Dataset dataset = MakeDataset(100, 16);
  const LbsServer server(&dataset, {.max_k = 10});
  obs::MetricsRegistry registry;
  SimulatedTransportOptions topts;
  topts.faults.transient_error_rate = 0.2;
  topts.faults.truncate_rate = 0.1;
  topts.registry = &registry;
  SimulatedTransport transport(&server, topts);
  for (const Vec2& q : RandomPoints(50, 17)) transport.Query(q, 5, nullptr);

  const TransportMetrics m = transport.Metrics();
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"requests\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"transient_error\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);

  uint64_t histogram_total = 0;
  for (uint64_t c : m.attempts_histogram) histogram_total += c;
  EXPECT_EQ(histogram_total, m.requests);

  uint64_t outcome_total = 0;
  for (int i = 0; i < kNumTransportOutcomes; ++i) {
    outcome_total += m.outcomes[i];
  }
  EXPECT_EQ(outcome_total, m.requests);

  // Millisecond totals print every digit, not ostream's six.
  TransportMetrics wide;
  wide.throttle_wait_ms = 497785.675;
  wide.latency_ms = 1202947.12;
  const std::string wide_json = wide.ToJson();
  EXPECT_NE(wide_json.find("\"throttle_wait_ms\": 497785.675,"),
            std::string::npos);
  EXPECT_NE(wide_json.find("\"latency_ms\": 1202947.12,"), std::string::npos);

  // The latency distribution lives on the metric plane: one observation
  // per logical query, rendered by the registry's table.
  if (obs::kObsEnabled) {
    EXPECT_EQ(registry.GetHistogram("transport.latency_ms", {})->count(),
              m.requests);
    const std::string table = registry.Snapshot().ToTable().ToString();
    EXPECT_NE(table.find("transport.latency_ms.count"), std::string::npos);
  }
}

TEST(TransportMetrics, MergeAddsEverything) {
  TransportMetrics a;
  a.requests = 2;
  a.attempts = 3;
  a.RecordAttemptsForRequest(1);
  a.RecordAttemptsForRequest(2);
  a.latency_ms = 10.0;
  TransportMetrics b;
  b.requests = 1;
  b.attempts = 4;
  b.RecordAttemptsForRequest(4);
  b.latency_ms = 2000.0;

  a.Merge(b);
  EXPECT_EQ(a.requests, 3u);
  EXPECT_EQ(a.attempts, 7u);
  ASSERT_EQ(a.attempts_histogram.size(), 4u);
  EXPECT_EQ(a.attempts_histogram[0], 1u);
  EXPECT_EQ(a.attempts_histogram[3], 1u);
  EXPECT_EQ(a.latency_ms, 2010.0);
}

}  // namespace
}  // namespace lbsagg
