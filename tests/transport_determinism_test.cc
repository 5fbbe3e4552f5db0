// The transport determinism contract: same seed + same policy config ⇒
// bit-identical outcome sequence, result pages, and metrics — whether the
// queries run synchronously or across 1..8 dispatcher worker threads, and
// across independent reruns. The one-shard wire's lane holds the
// per-attempt accounting, so the comparisons read ShardMetrics(0).

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "engine/nno_resolver.h"
#include "geometry/loc_key.h"  // SplitMix64
#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "transport/async_dispatcher.h"
#include "transport/sharded_transport.h"
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

ShardedTransportOptions FlakyOptions() {
  ShardedTransportOptions topts;
  topts.latency.kind = LatencyOptions::Kind::kLognormal;
  topts.rate_limit = {.capacity = 50.0, .refill_per_sec = 200.0};
  topts.faults.transient_error_rate = 0.15;
  topts.faults.timeout_rate = 0.05;
  topts.faults.truncate_rate = 0.10;
  topts.retry.max_attempts = 3;
  topts.seed = 1234;
  return topts;
}

void ExpectRepliesEqual(const std::vector<TransportReply>& a,
                        const std::vector<TransportReply>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "reply " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "reply " << i;
    EXPECT_EQ(a[i].latency_ms, b[i].latency_ms) << "reply " << i;
    ASSERT_EQ(a[i].hits.size(), b[i].hits.size()) << "reply " << i;
    for (size_t j = 0; j < a[i].hits.size(); ++j) {
      EXPECT_EQ(a[i].hits[j].tuple_id, b[i].hits[j].tuple_id);
      EXPECT_EQ(a[i].hits[j].distance, b[i].hits[j].distance);
    }
  }
}

TEST(TransportDeterminism, SameSeedSameSequenceAcrossWorkerCounts) {
  const Dataset dataset = MakeDataset(300, 1);
  const LbsServer server(&dataset, {.max_k = 10});
  const std::vector<Vec2> points = RandomPoints(200, 2);

  // Reference: synchronous, no dispatcher at all.
  ShardedTransport reference(&server, FlakyOptions());
  std::vector<TransportReply> expected;
  expected.reserve(points.size());
  for (const Vec2& q : points) expected.push_back(reference.Query(q, 5, {}));
  const TransportMetrics expected_metrics = reference.ShardMetrics(0);

  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    ShardedTransport transport(&server, FlakyOptions());
    AsyncDispatcher dispatcher(
        &transport, {.num_workers = workers, .queue_capacity = 16});
    const std::vector<TransportReply> replies =
        dispatcher.QueryBatch(points, 5);
    ExpectRepliesEqual(expected, replies);
    EXPECT_EQ(transport.ShardMetrics(0), expected_metrics)
        << "metrics diverged at " << workers << " workers";
  }
}

TEST(TransportDeterminism, MetricsIdenticalAcrossReruns) {
  const Dataset dataset = MakeDataset(300, 3);
  const LbsServer server(&dataset, {.max_k = 10});
  const std::vector<Vec2> points = RandomPoints(500, 4);

  auto run = [&] {
    ShardedTransport transport(&server, FlakyOptions());
    AsyncDispatcher dispatcher(&transport,
                               {.num_workers = 4, .queue_capacity = 32});
    dispatcher.QueryBatch(points, 5);
    return transport.ShardMetrics(0);
  };
  const TransportMetrics first = run();
  const TransportMetrics second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.ToJson(), second.ToJson());
}

// End to end: a full estimator whose probe batches cross the dispatcher
// produces the same estimates, query counts, and transport metrics for any
// worker count.
TEST(TransportDeterminism, EstimatorTraceIdenticalAcrossWorkerCounts) {
  const Dataset dataset = MakeDataset(400, 5);
  const LbsServer server(&dataset, {.max_k = 10});

  auto run = [&](unsigned workers) {
    ShardedTransport transport(&server, FlakyOptions());
    std::unique_ptr<AsyncDispatcher> dispatcher;
    if (workers > 0) {
      dispatcher = std::make_unique<AsyncDispatcher>(
          &transport, DispatcherOptions{workers, 16});
    }
    LrClient client(&server, {.k = 5, .budget = 1500}, &transport,
                    dispatcher.get());
    engine::NnoProbeResolver resolver(&client, {.seed = 42});
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(AggregateSpec::Count());
    RunEngine(&eng, {.budget = 1500});
    const RunResult result = EngineResults(eng)[0];
    return std::make_pair(result, transport.ShardMetrics(0));
  };

  const auto [reference, reference_metrics] = run(0);
  EXPECT_GT(reference.trace.size(), 1u);
  for (unsigned workers : {1u, 4u, 8u}) {
    const auto [result, metrics] = run(workers);
    EXPECT_EQ(result.final_estimate, reference.final_estimate);
    EXPECT_EQ(result.queries, reference.queries);
    ASSERT_EQ(result.trace.size(), reference.trace.size());
    for (size_t i = 0; i < result.trace.size(); ++i) {
      EXPECT_EQ(result.trace[i].queries, reference.trace[i].queries);
      EXPECT_EQ(result.trace[i].estimate, reference.trace[i].estimate);
    }
    EXPECT_EQ(metrics, reference_metrics)
        << "metrics diverged at " << workers << " workers";
  }
}

// The batch path and the one-at-a-time path are the same wire: identical
// pages, accounting, and metrics.
TEST(TransportDeterminism, BatchMatchesSequentialQueries) {
  const Dataset dataset = MakeDataset(300, 6);
  const LbsServer server(&dataset, {.max_k = 10});
  const std::vector<Vec2> points = RandomPoints(100, 7);

  ShardedTransport seq_transport(&server, FlakyOptions());
  LrClient seq_client(&server, {.k = 5}, &seq_transport);
  std::vector<std::vector<LrClient::Item>> sequential;
  sequential.reserve(points.size());
  for (const Vec2& q : points) sequential.push_back(seq_client.Query(q));

  ShardedTransport batch_transport(&server, FlakyOptions());
  AsyncDispatcher dispatcher(&batch_transport,
                             {.num_workers = 4, .queue_capacity = 16});
  LrClient batch_client(&server, {.k = 5}, &batch_transport, &dispatcher);
  const std::vector<std::vector<LrClient::Item>> batched =
      batch_client.QueryBatch(points);

  ASSERT_EQ(sequential.size(), batched.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].size(), batched[i].size());
    for (size_t j = 0; j < sequential[i].size(); ++j) {
      EXPECT_EQ(sequential[i][j].id, batched[i][j].id);
      EXPECT_EQ(sequential[i][j].distance, batched[i][j].distance);
    }
  }
  EXPECT_EQ(seq_client.queries_used(), batch_client.queries_used());
  EXPECT_EQ(seq_transport.ShardMetrics(0), batch_transport.ShardMetrics(0));
}

// The tests above compare runs with each other; this one pins what the
// policy pipeline decides. It hashes every plan (outcome, attempts and
// latency bits), every delivered page, the final metrics of the wire and of
// each lane, and the virtual clock, for a faulty, rate-limited,
// retry-budgeted one-shard wire and for a 4-shard wire with one hot lane on
// the pipelined clock, 1,000 tickets each. A change to draw order, clock
// arithmetic, truncation or accounting moves a fingerprint.
uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

uint64_t HashReply(uint64_t h, const TransportPlan& plan,
                   const TransportReply& reply) {
  h = Mix(h, plan.ticket);
  h = Mix(h, static_cast<uint64_t>(plan.outcome));
  h = Mix(h, static_cast<uint64_t>(plan.attempts));
  h = Mix(h, Bits(plan.latency_ms));
  h = Mix(h, 0);  // a reserved word; the pinned values include it
  h = Mix(h, reply.hits.size());
  for (const ServerHit& hit : reply.hits) {
    h = Mix(h, static_cast<uint64_t>(hit.tuple_id));
  }
  return h;
}

uint64_t HashMetrics(uint64_t h, const TransportMetrics& m) {
  h = Mix(h, m.requests);
  h = Mix(h, m.attempts);
  h = Mix(h, m.retries);
  for (uint64_t count : m.outcomes) h = Mix(h, count);
  h = Mix(h, m.attempt_transient_errors);
  h = Mix(h, m.attempt_timeouts);
  h = Mix(h, m.throttle_events);
  h = Mix(h, Bits(m.throttle_wait_ms));
  h = Mix(h, Bits(m.latency_ms));
  for (uint64_t count : m.attempts_histogram) h = Mix(h, count);
  return h;
}

TEST(TransportDeterminism, PipelineFingerprintPinned) {
  const Dataset dataset = MakeDataset(300, 8);
  const std::vector<Vec2> points = RandomPoints(1000, 9);

  const LbsServer server(&dataset, {.max_k = 10});
  ShardedTransportOptions sopts = FlakyOptions();
  sopts.rate_limit = {.capacity = 4.0, .refill_per_sec = 8.0};
  sopts.retry.retry_budget = 150;  // spent partway: later failures are fatal
  ShardedTransport one_shard(&server, sopts);
  uint64_t h = 0;
  for (const Vec2& q : points) {
    const TransportPlan plan = one_shard.Prepare(q, 5);
    h = HashReply(h, plan, one_shard.Fulfill(plan, q, 5, nullptr));
  }
  h = HashMetrics(h, one_shard.Metrics());
  for (int s = 0; s < one_shard.num_shards(); ++s) {
    h = HashMetrics(h, one_shard.ShardMetrics(s));
  }
  h = Mix(h, Bits(one_shard.VirtualNowMs()));
  EXPECT_EQ(h, 0xf8a9eb8bc39648caull) << std::hex << h;

  const ShardedLbsServer sharded(&dataset, {.num_shards = 4,
                                            .server = {.max_k = 10}});
  ShardedTransportOptions topts;
  topts.latency.kind = LatencyOptions::Kind::kLognormal;
  topts.rate_limit = {.capacity = 8.0, .refill_per_sec = 100.0};
  topts.faults.truncate_rate = 0.05;
  topts.shard_faults.resize(4, topts.faults);
  topts.shard_faults[1] = {.transient_error_rate = 0.3,
                           .timeout_rate = 0.05,
                           .truncate_rate = 0.1};
  topts.retry.max_attempts = 3;
  topts.retry.retry_budget = 200;
  topts.pipelined_clock = true;
  topts.seed = 4321;
  ShardedTransport transport(&sharded, topts);
  h = 0;
  for (const Vec2& q : points) {
    const TransportPlan plan = transport.Prepare(q, 5);
    h = HashReply(h, plan, transport.Fulfill(plan, q, 5, nullptr));
  }
  h = HashMetrics(h, transport.Metrics());
  for (int s = 0; s < transport.num_shards(); ++s) {
    h = HashMetrics(h, transport.ShardMetrics(s));
  }
  h = Mix(h, Bits(transport.VirtualNowMs()));
  EXPECT_EQ(h, 0x73fa8f531088d25eull) << std::hex << h;
}

// The gather's uncapped branches, pinned the same way: a 4-shard server
// ranking by prominence, so no lane is capped, behind a wire whose lanes
// truncate pages and retry transient errors.
TEST(TransportDeterminism, ProminenceGatherFingerprintPinned) {
  const Dataset dataset = MakeDataset(400, 10);
  const std::vector<Vec2> points = RandomPoints(1000, 11);

  const ShardedLbsServer sharded(
      &dataset, {.num_shards = 4,
                 .server = {.max_k = 10,
                            .max_radius = 30.0,
                            .ranking = RankingMode::kProminence,
                            .prominence_column = "score",
                            .prominence_weight = 4.0}});
  ShardedTransportOptions topts;
  topts.faults = {.transient_error_rate = 0.05, .truncate_rate = 0.15};
  topts.retry.max_attempts = 3;
  topts.seed = 8765;
  ShardedTransport transport(&sharded, topts);
  uint64_t h = 0;
  for (const Vec2& q : points) {
    const TransportPlan plan = transport.Prepare(q, 5);
    const TransportReply reply = transport.Fulfill(plan, q, 5, nullptr);
    h = HashReply(h, plan, reply);
    for (const ServerHit& hit : reply.hits) h = Mix(h, Bits(hit.distance));
  }
  h = HashMetrics(h, transport.Metrics());
  for (int s = 0; s < transport.num_shards(); ++s) {
    h = HashMetrics(h, transport.ShardMetrics(s));
  }
  EXPECT_EQ(h, 0x846b06c44aa9eae8ull) << std::hex << h;
}

}  // namespace
}  // namespace lbsagg
