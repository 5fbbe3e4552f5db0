// ShardedTransport: scatter-gather over per-shard lanes. Pins (1) clean
// lanes are invisible — replies bit-identical to the monolithic server for
// every shard and worker count; (2) a hot shard whose retries succeed
// still merges bit-identically (the retry path changes cost, never
// content); (3) an exhausted lane budget surfaces as a *typed* error with
// an empty page, never a silently truncated top-k; (4) per-lane metrics
// and the obs counters account truthfully.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "transport/async_dispatcher.h"
#include "transport/sharded_transport.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {800, 500});

Schema MakeSchema() {
  Schema s;
  s.AddColumn("category", AttrType::kString);
  return s;
}

Dataset MakeDataset(int n, uint64_t seed) {
  Dataset d(kBox, MakeSchema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    d.Add(kBox.SamplePoint(rng),
          {std::string(i % 3 == 0 ? "restaurant" : "other")});
  }
  return d;
}

std::vector<Vec2> MakeQueries(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> queries;
  for (int i = 0; i < n; ++i) queries.push_back(kBox.SamplePoint(rng));
  return queries;
}

void ExpectHitsEqual(const std::vector<ServerHit>& a,
                     const std::vector<ServerHit>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple_id, b[i].tuple_id) << what << " rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << what << " rank " << i;
  }
}

TEST(ShardedTransport, CleanLanesBitIdenticalToMonolithEveryShardCount) {
  const Dataset d = MakeDataset(1200, 5);
  const LbsServer mono(&d, {});
  const std::vector<Vec2> queries = MakeQueries(100, 9);
  for (int shards : {1, 4, 16}) {
    const ShardedLbsServer server(&d, {.num_shards = shards});
    ShardedTransportOptions topts;
    topts.rate_limit = {.capacity = 4.0, .refill_per_sec = 100.0};
    ShardedTransport transport(&server, topts);
    for (const Vec2& q : queries) {
      const TransportReply reply = transport.Query(q, 5, nullptr);
      EXPECT_EQ(reply.outcome, TransportOutcome::kOk);
      EXPECT_EQ(reply.attempts, 1);
      ExpectHitsEqual(reply.hits, mono.Query(q, 5), "clean lanes");
    }
    const TransportMetrics m = transport.Metrics();
    EXPECT_EQ(m.requests, queries.size());
    EXPECT_EQ(m.attempts, queries.size());  // critical path: 1 per query
  }
}

TEST(ShardedTransport, DispatcherWorkerCountInvariant) {
  const Dataset d = MakeDataset(1000, 7);
  const ShardedLbsServer server(&d, {.num_shards = 4});
  const std::vector<Vec2> queries = MakeQueries(200, 11);

  auto run = [&](unsigned workers) {
    ShardedTransportOptions topts;
    topts.faults.transient_error_rate = 0.1;
    topts.faults.truncate_rate = 0.05;
    topts.retry.max_attempts = 4;
    ShardedTransport transport(&server, topts);
    AsyncDispatcher dispatcher(&transport, {workers, 64});
    const std::vector<TransportReply> replies =
        dispatcher.QueryBatch(queries, 5, nullptr);
    return std::make_pair(replies, transport.Metrics());
  };
  const auto [replies1, metrics1] = run(1);
  const auto [replies8, metrics8] = run(8);
  ASSERT_EQ(replies1.size(), replies8.size());
  for (size_t i = 0; i < replies1.size(); ++i) {
    EXPECT_EQ(replies1[i].outcome, replies8[i].outcome);
    EXPECT_EQ(replies1[i].attempts, replies8[i].attempts);
    EXPECT_EQ(replies1[i].latency_ms, replies8[i].latency_ms);
    ExpectHitsEqual(replies1[i].hits, replies8[i].hits, "workers");
  }
  EXPECT_EQ(metrics1, metrics8);
}

TEST(ShardedTransport, HotShardRetriesKeepMergedResultBitIdentical) {
  const Dataset d = MakeDataset(1200, 13);
  const LbsServer mono(&d, {});
  const ShardedLbsServer server(&d, {.num_shards = 4});

  // Shard 2 runs hot with retryable faults, but enough attempts remain
  // that every sub-request eventually succeeds with very high probability;
  // queries whose retries all land deliver bit-identical merges.
  ShardedTransportOptions topts;
  topts.shard_faults.resize(4);
  topts.shard_faults[2].transient_error_rate = 0.5;
  topts.retry.max_attempts = 12;
  ShardedTransport transport(&server, topts);

  int delivered = 0;
  int retried = 0;
  for (const Vec2& q : MakeQueries(150, 17)) {
    const TransportReply reply = transport.Query(q, 5, nullptr);
    if (reply.outcome != TransportOutcome::kOk) continue;  // astronomically rare
    ++delivered;
    if (reply.attempts > 1) ++retried;
    ExpectHitsEqual(reply.hits, mono.Query(q, 5), "hot shard");
  }
  EXPECT_GE(delivered, 145);  // p(12 consecutive failures) = 0.5^12 per query
  EXPECT_GT(retried, 0);      // the hot lane actually exercised the retry path

  // The cost of the hot shard is visible exactly where it should be: lane 2
  // spent retries, the clean lanes spent none, and the client-facing
  // aggregate charged the critical path (max attempts over lanes).
  EXPECT_GT(transport.ShardMetrics(2).retries, 0u);
  EXPECT_EQ(transport.ShardMetrics(0).retries, 0u);
  EXPECT_EQ(transport.ShardMetrics(1).retries, 0u);
  EXPECT_EQ(transport.ShardMetrics(3).retries, 0u);
  EXPECT_GT(transport.Metrics().attempts, transport.Metrics().requests);
}

TEST(ShardedTransport, ExhaustedLaneBudgetSurfacesTypedErrorNotTruncation) {
  const Dataset d = MakeDataset(800, 19);
  const LbsServer mono(&d, {});
  const ShardedLbsServer server(&d, {.num_shards = 4});

  // Shard 1 always fails; a tiny per-lane retry budget is spent within a
  // few queries, after which its sub-requests fail fast as kFatal.
  ShardedTransportOptions topts;
  topts.shard_faults.resize(4);
  topts.shard_faults[1].transient_error_rate = 1.0;
  topts.retry.max_attempts = 3;
  topts.retry.retry_budget = 4;
  ShardedTransport transport(&server, topts);

  int fatal = 0;
  for (const Vec2& q : MakeQueries(60, 23)) {
    const TransportReply reply = transport.Query(q, 5, nullptr);
    if (Delivered(reply.outcome)) {
      // Only queries that never needed the dead shard deliver — and their
      // merge is the full monolithic answer, not a 3-shard subset.
      ExpectHitsEqual(reply.hits, mono.Query(q, 5), "delivered");
    } else {
      // The partial failure is typed and the page empty: estimators see
      // "no answer", never a silently truncated top-k.
      EXPECT_TRUE(reply.outcome == TransportOutcome::kTransientError ||
                  reply.outcome == TransportOutcome::kFatal);
      EXPECT_TRUE(reply.hits.empty());
      if (reply.outcome == TransportOutcome::kFatal) ++fatal;
    }
  }
  EXPECT_GT(fatal, 0) << "retry budget exhaustion never surfaced";
  EXPECT_GT(transport.Metrics().outcomes[static_cast<int>(
                TransportOutcome::kFatal)],
            0u);
}

TEST(ShardedTransport, EstimatorOverHotShardMatchesCleanEstimate) {
  const Dataset d = MakeDataset(1000, 29);
  const ShardedLbsServer server(&d, {.num_shards = 4});
  const AggregateSpec spec = AggregateSpec::Count();

  auto estimate = [&](double hot_rate) {
    ShardedTransportOptions topts;
    topts.shard_faults.resize(4);
    topts.shard_faults[3].transient_error_rate = hot_rate;
    topts.retry.max_attempts = 16;  // retries always recover eventually
    ShardedTransport transport(&server, topts);
    LrClient client(&server, {.k = 5, .budget = 400}, &transport);
    engine::NnoProbeResolver resolver(&client, {.seed = 99});
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(spec);
    RunEngine(&eng, {.budget = 400});
    return EngineResults(eng)[0];
  };
  const RunResult clean = estimate(0.0);
  const RunResult hot = estimate(0.45);
  // Every logical answer is identical once retries succeed, so each
  // *round* produces the same estimate; the flaky run just pays more
  // attempts per round and therefore completes fewer rounds per budget.
  ASSERT_GT(clean.trace.size(), 0u);
  ASSERT_GT(hot.trace.size(), 0u);
  EXPECT_LE(hot.trace.size(), clean.trace.size());
  for (size_t i = 0; i < hot.trace.size(); ++i) {
    EXPECT_EQ(hot.trace[i].estimate, clean.trace[i].estimate)
        << "round " << i;
  }
}

TEST(ShardedTransport, PerShardCountersLandOnTheMetricPlane) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "instrumentation compiled out";
  const Dataset d = MakeDataset(600, 31);
  const ShardedLbsServer server(&d, {.num_shards = 3});
  obs::MetricsRegistry registry;
  ShardedTransportOptions topts;
  topts.registry = &registry;
  ShardedTransport transport(&server, topts);
  for (const Vec2& q : MakeQueries(20, 37)) {
    (void)transport.Query(q, 5, nullptr);
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  uint64_t sharded_requests = 0;
  uint64_t lane_attempts = 0;
  int lane_counters = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "transport.sharded.requests") sharded_requests = c.value;
    if (c.name == obs::ShardMetricName("transport", 0, "attempts") ||
        c.name == obs::ShardMetricName("transport", 1, "attempts") ||
        c.name == obs::ShardMetricName("transport", 2, "attempts")) {
      ++lane_counters;
      lane_attempts += c.value;
    }
  }
  EXPECT_EQ(sharded_requests, 20u);
  EXPECT_EQ(lane_counters, 3);
  // Clean lanes, infinite radius: every query fans out to all 3 shards.
  EXPECT_EQ(lane_attempts, 60u);

  // One latency observation per lane sub-request, and one per logical
  // query in the client-facing aggregate.
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(registry
                  .GetHistogram(obs::ShardMetricName("transport", s,
                                                     "latency_ms"),
                                {})
                  ->count(),
              transport.ShardMetrics(s).requests)
        << "shard " << s;
  }
  EXPECT_EQ(registry.GetHistogram("transport.sharded.latency_ms", {})->count(),
            transport.Metrics().requests);
}

TEST(ShardedTransport, CoverageRadiusPrunesFanOut) {
  const Dataset d = MakeDataset(1200, 41);
  ServerOptions sopts;
  sopts.max_radius = 40.0;  // small coverage disc in an 800x500 box
  const ShardedLbsServer server(&d, {.num_shards = 16, .server = sopts});
  ShardedTransport transport(&server);
  const std::vector<Vec2> queries = MakeQueries(50, 43);
  for (const Vec2& q : queries) (void)transport.Query(q, 5, nullptr);
  // Every targeted lane takes exactly one sub-request per query.
  uint64_t fanout = 0;
  for (int s = 0; s < transport.num_shards(); ++s) {
    fanout += transport.ShardMetrics(s).requests;
  }
  // Spatial shards + small d_max: the scatter targets a handful of shards,
  // not all 16 — this is what lets per-lane quota scale with the fleet.
  EXPECT_GT(fanout, 0u);
  EXPECT_LT(fanout, queries.size() * 8);
  // Pruned scatter still answers exactly like the monolith.
  const LbsServer mono(&d, sopts);
  for (const Vec2& q : queries) {
    ExpectHitsEqual(transport.Query(q, 5, nullptr).hits, mono.Query(q, 5),
                    "pruned scatter");
  }
}

}  // namespace
}  // namespace lbsagg
