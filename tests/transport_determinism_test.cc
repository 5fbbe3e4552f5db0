// The transport determinism contract: same seed + same policy config ⇒
// bit-identical outcome sequence, result pages, and metrics — whether the
// queries run synchronously, through an inline dispatcher, or across 1..8
// dispatcher worker threads, and across independent reruns.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "transport/async_dispatcher.h"
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

SimulatedTransportOptions FlakyOptions() {
  SimulatedTransportOptions topts;
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
  SimulatedTransport reference(&server, FlakyOptions());
  std::vector<TransportReply> expected;
  expected.reserve(points.size());
  for (const Vec2& q : points) expected.push_back(reference.Query(q, 5, {}));
  const TransportMetrics expected_metrics = reference.Metrics();

  for (unsigned workers : {0u, 1u, 2u, 4u, 8u}) {
    SimulatedTransport transport(&server, FlakyOptions());
    AsyncDispatcher dispatcher(
        &transport, {.num_workers = workers, .queue_capacity = 16});
    const std::vector<TransportReply> replies =
        dispatcher.QueryBatch(points, 5);
    ExpectRepliesEqual(expected, replies);
    EXPECT_EQ(transport.Metrics(), expected_metrics)
        << "metrics diverged at " << workers << " workers";
  }
}

TEST(TransportDeterminism, MetricsIdenticalAcrossReruns) {
  const Dataset dataset = MakeDataset(300, 3);
  const LbsServer server(&dataset, {.max_k = 10});
  const std::vector<Vec2> points = RandomPoints(500, 4);

  auto run = [&] {
    SimulatedTransport transport(&server, FlakyOptions());
    AsyncDispatcher dispatcher(&transport,
                               {.num_workers = 4, .queue_capacity = 32});
    dispatcher.QueryBatch(points, 5);
    return transport.Metrics();
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
    SimulatedTransport transport(&server, FlakyOptions());
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
    return std::make_pair(result, transport.Metrics());
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

  SimulatedTransport seq_transport(&server, FlakyOptions());
  LrClient seq_client(&server, {.k = 5}, &seq_transport);
  std::vector<std::vector<LrClient::Item>> sequential;
  sequential.reserve(points.size());
  for (const Vec2& q : points) sequential.push_back(seq_client.Query(q));

  SimulatedTransport batch_transport(&server, FlakyOptions());
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
  EXPECT_EQ(seq_transport.Metrics(), batch_transport.Metrics());
}

}  // namespace
}  // namespace lbsagg
