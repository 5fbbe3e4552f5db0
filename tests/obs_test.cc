// Behavior of the observability plane (DESIGN.md §4.8): registry
// create-or-get semantics, the snapshot-then-reset accounting-period
// contract under concurrent increments (run under TSAN by tools/check.sh),
// the client's atomic stats drain with batches in flight on a dispatcher,
// the tracer's Chrome trace_event serialization, and RunReport assembly.

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "obs/introspect/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "transport/async_dispatcher.h"
#include "transport/metrics.h"
#include "transport/simulated_transport.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lbsagg {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// MetricsRegistry cells

TEST(MetricsRegistry, CreateOrGetReturnsStableCells) {
  MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("layer.component.metric");
  obs::Counter* b = registry.GetCounter("layer.component.metric");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_NE(registry.GetCounter("layer.component.other"), a);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("h", {1.0, 10.0, 100.0});
  // A second registration with different bounds returns the existing cell
  // unchanged: bounds are part of the cell's identity.
  obs::Histogram* again = registry.GetHistogram("h", {5.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(again->bounds().size(), 3u);

  h->Observe(0.5);    // bucket 0 (<= 1)
  h->Observe(10.0);   // bucket 1 (<= 10, inclusive upper bound)
  h->Observe(1e6);    // overflow bucket
  const std::vector<uint64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 10.0 + 1e6);
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndComparable) {
  MetricsRegistry registry;
  registry.GetCounter("b.second")->Add(2);
  registry.GetCounter("a.first")->Add(1);
  registry.GetGauge("g.level")->Set(3.5);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "b.second");
  EXPECT_EQ(snap.counters[1].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 3.5);

  // Snapshot() copies; the cells keep counting and two identical states
  // compare equal.
  EXPECT_EQ(snap, registry.Snapshot());
  registry.GetCounter("a.first")->Add(1);
  EXPECT_NE(snap, registry.Snapshot());
}

TEST(MetricsRegistry, RefsThroughNullRegistryLandOnDefault) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "instrumentation compiled out";
  const std::string name = "obs_test.unique.default_counter";
  const obs::CounterRef ref = obs::GetCounter(nullptr, name);
  const uint64_t before = MetricsRegistry::Default().GetCounter(name)->Value();
  ref.Add(5);
  EXPECT_EQ(MetricsRegistry::Default().GetCounter(name)->Value(), before + 5);
}

// The accounting-period contract: concurrent increments race a
// snapshot-then-reset loop, and every increment lands in exactly one
// period. This is the TSAN regression test for the metric plane.
TEST(MetricsRegistry, SnapshotAndResetPreservesTotalsUnderConcurrency) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("contended.counter");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;

  std::atomic<bool> done{false};
  uint64_t drained = 0;
  std::thread reaper([&] {
    while (!done.load(std::memory_order_acquire)) {
      drained += registry.SnapshotAndReset().counters[0].value;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Add(1);
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reaper.join();

  drained += registry.SnapshotAndReset().counters[0].value;
  EXPECT_EQ(drained, kThreads * kPerThread);
  EXPECT_EQ(counter->Value(), 0u);
}

// ---------------------------------------------------------------------------
// Client query-count drain under a dispatcher

Dataset MakeDataset(int n, uint64_t seed) {
  const Box box({0, 0}, {100, 100});
  Schema schema;
  schema.AddColumn("score", AttrType::kDouble);
  Dataset d(box, schema);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    d.Add(box.SamplePoint(rng), {rng.Uniform(1.0, 5.0)});
  }
  return d;
}

// DrainQueryCount races QueryBatch() calls running on dispatcher workers;
// the drained periods plus the live remainder must add up to the exact
// total charged. Run under TSAN by tools/check.sh.
TEST(DrainQueryCount, AtomicUnderDispatcher) {
  const Dataset dataset = MakeDataset(300, 1);
  const LbsServer server(&dataset, {.max_k = 5});
  SimulatedTransport transport(&server, {.seed = 99});
  AsyncDispatcher dispatcher(&transport, {.num_workers = 4});
  LrClient client(&server, {.k = 3}, &transport, &dispatcher);

  constexpr int kBatches = 40;
  constexpr int kBatchSize = 16;
  std::atomic<bool> done{false};
  uint64_t drained = 0;
  std::thread reaper([&] {
    while (!done.load(std::memory_order_acquire)) {
      drained += client.DrainQueryCount();
    }
  });

  Rng rng(7);
  const Box box({0, 0}, {100, 100});
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Vec2> batch;
    for (int i = 0; i < kBatchSize; ++i) batch.push_back(box.SamplePoint(rng));
    (void)client.QueryBatch(batch);
  }
  done.store(true, std::memory_order_release);
  reaper.join();

  const uint64_t total = drained + client.DrainQueryCount();
  // Every batch slot charges at least one attempt; retries may add more.
  EXPECT_GE(total, static_cast<uint64_t>(kBatches * kBatchSize));
  EXPECT_EQ(total, transport.Metrics().attempts);
  EXPECT_EQ(client.queries_used(), 0u);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, ScopedSpansSerializeToChromeTraceJson) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "instrumentation compiled out";
  obs::Tracer tracer;
  {
    obs::ScopedSpan outer(&tracer, "estimator.round", "estimator");
    obs::ScopedSpan inner(&tracer, "client.query", "client");
  }
  tracer.AddComplete("transport.attempt", "transport", /*ts_us=*/1000.0,
                     /*dur_us=*/250.0);
  EXPECT_EQ(tracer.event_count(), 3u);

  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"estimator.round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"transport.attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
}

TEST(Tracer, NullTracerSpansAreNoOps) {
  // Must not crash or allocate; the hot paths run this on every round.
  for (int i = 0; i < 100; ++i) {
    obs::ScopedSpan span(nullptr, "estimator.round");
  }
}

TEST(Tracer, VirtualClockDrivesTimestamps) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "instrumentation compiled out";
  double now_us = 500.0;
  obs::FunctionTraceClock clock([&now_us] { return now_us; });
  obs::Tracer tracer(&clock);
  {
    obs::ScopedSpan span(&tracer, "estimator.round", "estimator");
    now_us = 900.0;
  }
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"ts\":500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":400"), std::string::npos);
}

// Steady-clock timestamps pass 10^9 µs after ~17 minutes of uptime, where 6
// significant digits print two spans 1 µs apart as the same "ts".
TEST(Tracer, TimestampsResolveMicrosecondsAtLongUptime) {
  obs::Tracer tracer;
  tracer.AddComplete("first", "estimator", /*ts_us=*/3.6e9, /*dur_us=*/0.5);
  tracer.AddComplete("second", "estimator", /*ts_us=*/3.6e9 + 1.0,
                     /*dur_us=*/0.5);
  const std::string json = tracer.ToChromeTraceJson();
  std::vector<double> ts;
  const std::string key = "\"ts\":";
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1)) {
    ts.push_back(std::strtod(json.c_str() + pos + key.size(), nullptr));
  }
  ASSERT_EQ(ts.size(), 2u) << json;
  EXPECT_EQ(ts[0], 3.6e9) << json;
  EXPECT_EQ(ts[1], 3.6e9 + 1.0) << json;

  obs::introspect::FlightRecord record;
  record.ts_us = 3.6e9 + 1.0;
  EXPECT_NE(obs::introspect::FlightRecordJson(record).find(
                "\"ts_us\":3600000001,"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// RunReport

TEST(RunReport, MergesMetaStatsSnapshotAndSections) {
  MetricsRegistry registry;
  registry.GetCounter("client.queries")->Add(42);
  registry.GetGauge("transport.latency_mean_ms")->Set(80.5);

  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0}) stats.Add(v);

  obs::RunReport report;
  report.SetMeta("estimator", "lr");
  report.SetMetaNum("budget", 4000);
  report.AddStats("running_estimate", stats);
  report.SetSnapshot(registry.Snapshot());
  report.AddJsonSection("transport", "{\"requests\": 7}");

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"estimator\": \"lr\""), std::string::npos);
  EXPECT_NE(json.find("\"budget\": 4000"), std::string::npos);
  EXPECT_NE(json.find("\"running_estimate\""), std::string::npos);
  EXPECT_NE(json.find("\"client.queries\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"requests\": 7"), std::string::npos);

  EXPECT_EQ(report.snapshot().counters.size(), 1u);
  EXPECT_FALSE(report.ToTable().ToString().empty());
}

// Meta strings route through JsonWriter::AppendEscaped, so a value carrying
// quotes, backslashes, or newlines stays parseable instead of corrupting
// the report.
TEST(RunReport, EscapesMetaStringsAndKeys) {
  obs::RunReport report;
  report.SetMeta("dataset", "usa \"6k\"\npath\\to\\file");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"usa \\\"6k\\\"\\npath\\\\to\\\\file\""),
            std::string::npos);
  // The raw forms must not appear: embedded newlines or bare quotes would
  // break any consumer that actually parses the report.
  EXPECT_EQ(json.find("\"6k\"\n"), std::string::npos);
}

// PublishTransportMetrics bridges the transport's own struct onto the
// metric plane: counts as counters, levels as gauges.
TEST(RunReport, TransportMetricsBridgeOntoRegistry) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "instrumentation compiled out";
  TransportMetrics metrics;
  metrics.requests = 10;
  metrics.attempts = 13;
  metrics.retries = 3;

  MetricsRegistry registry;
  PublishTransportMetrics(metrics, &registry);
  EXPECT_EQ(registry.GetCounter("transport.requests")->Value(), 10u);
  EXPECT_EQ(registry.GetCounter("transport.attempts")->Value(), 13u);
  EXPECT_EQ(registry.GetCounter("transport.retries")->Value(), 3u);
}

}  // namespace
}  // namespace lbsagg
