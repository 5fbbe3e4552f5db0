// Tests of the live introspection plane (DESIGN.md §4.13): flight-recorder
// publish/drain (including TSAN-raced against concurrent producers and the
// service scheduler), time-series sampler window arithmetic on a virtual
// clock, statusz / Prometheus rendering, tracer open-span lifecycle (the
// Cancel / deadline / teardown truncation regression), the SLO watchdog's
// typed verdicts, and the determinism contract: estimates and the legacy
// fig12 trace fingerprint stay bit-identical with the whole plane attached.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lr_resolver.h"
#include "lbs/server.h"
#include "obs/introspect/flight_recorder.h"
#include "obs/introspect/prometheus.h"
#include "obs/introspect/sampler.h"
#include "obs/introspect/statusz.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "service/introspect.h"
#include "service/service.h"
#include "service/watchdog.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace service {
namespace {

using obs::introspect::FlightRecord;
using obs::introspect::FlightRecorder;
using obs::introspect::QuantileFromBuckets;
using obs::introspect::TimeSeriesSampler;

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

const UsaScenario& SmallUsa() {
  static const UsaScenario usa = BuildUsaScenario({.num_pois = 1200});
  return usa;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- Flight recorder --------------------------------------------------------

FlightRecord MakeRecord(uint64_t a) {
  FlightRecord r;
  r.kind = FlightRecord::Kind::kEvent;
  r.SetName("test.event");
  r.a = a;
  return r;
}

// With instrumentation compiled out the recorder is a stub that keeps
// nothing. Checks that contract and returns true there (the caller then
// returns); returns false, checking nothing, when the plane is compiled in.
bool CompiledOutRecorder(FlightRecorder& recorder) {
  if (obs::kObsEnabled) return false;
  EXPECT_EQ(recorder.capacity(), 0u);
  EXPECT_FALSE(recorder.TryPublish(MakeRecord(1)));
  std::vector<FlightRecord> out;
  EXPECT_EQ(recorder.Drain(&out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(recorder.published(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.drained(), 0u);
  return true;
}

TEST(FlightRecorder, PublishThenDrainRoundTrips) {
  FlightRecorder recorder(8);
  if (CompiledOutRecorder(recorder)) return;
  EXPECT_EQ(recorder.capacity(), 8u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(recorder.TryPublish(MakeRecord(i)));
  }
  EXPECT_EQ(recorder.published(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);

  std::vector<FlightRecord> out;
  EXPECT_EQ(recorder.Drain(&out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].a, i);  // ring order: oldest first
    EXPECT_STREQ(out[i].name, "test.event");
  }
  EXPECT_EQ(recorder.drained(), 5u);
  // Empty now.
  EXPECT_EQ(recorder.Drain(&out), 0u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(1);
  if (CompiledOutRecorder(recorder)) return;
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);  // minimum
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(64).capacity(), 64u);
}

TEST(FlightRecorder, FullRingDropsNewestAndCounts) {
  FlightRecorder recorder(8);
  if (CompiledOutRecorder(recorder)) return;
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(recorder.TryPublish(MakeRecord(i)));
  }
  // Ring full: the next publishes drop (never block, never overwrite).
  EXPECT_FALSE(recorder.TryPublish(MakeRecord(100)));
  EXPECT_FALSE(recorder.TryPublish(MakeRecord(101)));
  EXPECT_EQ(recorder.published(), 8u);
  EXPECT_EQ(recorder.dropped(), 2u);

  std::vector<FlightRecord> out;
  EXPECT_EQ(recorder.Drain(&out), 8u);
  EXPECT_EQ(out.front().a, 0u);  // the oldest survived, the newest dropped
  EXPECT_EQ(out.back().a, 7u);

  // Drained slots are reusable.
  EXPECT_TRUE(recorder.TryPublish(MakeRecord(200)));
  const std::string stats = recorder.StatsJson();
  EXPECT_NE(stats.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(stats.find("\"dropped\":2"), std::string::npos);
}

TEST(FlightRecorder, NameTruncatesSafely) {
  FlightRecord r;
  r.SetName("a.very.long.span.name.that.exceeds.the.fixed.record.capacity");
  EXPECT_EQ(std::strlen(r.name), FlightRecord::kNameCapacity - 1);
  const std::string json = FlightRecordJson(r);
  EXPECT_NE(json.find("\"kind\":\"span\""), std::string::npos);
}

TEST(FlightRecorder, ConcurrentPublishersAndDrainerAccountExactly) {
  FlightRecorder recorder(256);
  if (CompiledOutRecorder(recorder)) return;
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> drained_total{0};
  std::thread drainer([&] {
    std::vector<FlightRecord> out;
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      drained_total.fetch_add(recorder.Drain(&out),
                              std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&recorder, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        recorder.TryPublish(MakeRecord(static_cast<uint64_t>(p) * kPerProducer + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  std::vector<FlightRecord> tail;
  drained_total.fetch_add(recorder.Drain(&tail), std::memory_order_relaxed);

  // Exact accounting once producers quiesce: every attempted publish either
  // landed (and was eventually drained) or was counted as a drop.
  EXPECT_EQ(recorder.published(), drained_total.load());
  EXPECT_EQ(recorder.published() + recorder.dropped(),
            kProducers * kPerProducer);
}

// --- Quantiles from fixed buckets -------------------------------------------

TEST(QuantileFromBuckets, EmptyWindowIsZero) {
  EXPECT_EQ(QuantileFromBuckets({1.0, 2.0}, {0, 0, 0}, 0.5), 0.0);
}

TEST(QuantileFromBuckets, InterpolatesInsideBucket) {
  // 10 observations all in (1, 2]: p50 = 1 + 0.5 * (2-1) = 1.5.
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<uint64_t> buckets = {0, 10, 0, 0};
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 1.0), 2.0);
}

TEST(QuantileFromBuckets, SpansBucketsCumulatively) {
  // 50 in (0,1], 50 in (1,2]: p25 = 0.5, p75 = 1.5.
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<uint64_t> buckets = {50, 50, 0};
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.75), 1.5);
}

TEST(QuantileFromBuckets, OverflowBucketClampsToLastBound) {
  // Everything past the last bound: no upper edge, clamp.
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<uint64_t> buckets = {0, 0, 7};
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets(bounds, buckets, 0.99), 2.0);
}

// --- Time-series sampler ----------------------------------------------------

// With instrumentation compiled out the sampler is a stub that never cuts
// a window. Checks that contract and returns true there; returns false,
// checking nothing, when the plane is compiled in.
bool CompiledOutSampler(TimeSeriesSampler& sampler) {
  if (obs::kObsEnabled) return false;
  sampler.Tick();
  EXPECT_FALSE(sampler.MaybeTick());
  EXPECT_EQ(sampler.num_windows(), 0u);
  EXPECT_TRUE(sampler.windows().empty());
  EXPECT_EQ(sampler.windows_cut(), 0u);
  return true;
}

TEST(TimeSeriesSampler, DiffsCountersIntoWindowsOnVirtualClock) {
  obs::MetricsRegistry registry;
  obs::Counter* queries = registry.GetCounter("client.queries");
  obs::Gauge* depth = registry.GetGauge("service.scheduler.queued");

  double clock = 0.0;
  TimeSeriesSampler sampler(
      {.registry = &registry, .clock_ms = [&clock] { return clock; },
       .period_ms = 10.0, .max_windows = 4});
  if (CompiledOutSampler(sampler)) return;

  sampler.Tick();  // baseline at t=0, no window yet
  EXPECT_EQ(sampler.num_windows(), 0u);

  queries->Add(25);
  depth->Set(3.0);
  clock = 10.0;
  EXPECT_TRUE(sampler.MaybeTick());
  ASSERT_EQ(sampler.num_windows(), 1u);
  const auto& w = sampler.windows().back();
  EXPECT_DOUBLE_EQ(w.t0_ms, 0.0);
  EXPECT_DOUBLE_EQ(w.t1_ms, 10.0);
  ASSERT_EQ(w.counters.size(), 1u);
  EXPECT_EQ(w.counters[0].first, "client.queries");
  EXPECT_EQ(w.counters[0].second, 25u);  // the delta, not the total
  ASSERT_EQ(w.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(w.gauges[0].second, 3.0);

  // Second window sees only its own increments.
  queries->Add(5);
  clock = 20.0;
  EXPECT_TRUE(sampler.MaybeTick());
  EXPECT_EQ(sampler.windows().back().counters[0].second, 5u);

  // A quiet window drops the zero-delta counter entirely.
  clock = 30.0;
  EXPECT_TRUE(sampler.MaybeTick());
  EXPECT_TRUE(sampler.windows().back().counters.empty());
}

TEST(TimeSeriesSampler, MaybeTickHonorsPeriod) {
  obs::MetricsRegistry registry;
  double clock = 0.0;
  TimeSeriesSampler sampler(
      {.registry = &registry, .clock_ms = [&clock] { return clock; },
       .period_ms = 100.0});
  if (CompiledOutSampler(sampler)) return;
  sampler.Tick();  // baseline
  clock = 50.0;
  EXPECT_FALSE(sampler.MaybeTick());  // period not elapsed
  clock = 99.9;
  EXPECT_FALSE(sampler.MaybeTick());
  clock = 100.0;
  EXPECT_TRUE(sampler.MaybeTick());
  EXPECT_EQ(sampler.windows_cut(), 1u);
}

TEST(TimeSeriesSampler, SlidingRingEvictsOldestWindows) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("x");
  double clock = 0.0;
  TimeSeriesSampler sampler(
      {.registry = &registry, .clock_ms = [&clock] { return clock; },
       .period_ms = 1.0, .max_windows = 3});
  if (CompiledOutSampler(sampler)) return;
  sampler.Tick();
  for (int i = 0; i < 6; ++i) {
    c->Add(1);
    clock += 1.0;
    sampler.Tick();
  }
  EXPECT_EQ(sampler.num_windows(), 3u);   // ring capped
  EXPECT_EQ(sampler.windows_cut(), 6u);   // lifetime count keeps going
  EXPECT_DOUBLE_EQ(sampler.windows().front().t0_ms, 3.0);  // oldest evicted
}

TEST(TimeSeriesSampler, HistogramWindowsCarryPerWindowQuantiles) {
  obs::MetricsRegistry registry;
  obs::Histogram* h =
      registry.GetHistogram("transport.latency", {1.0, 2.0, 4.0});
  double clock = 0.0;
  TimeSeriesSampler sampler(
      {.registry = &registry, .clock_ms = [&clock] { return clock; },
       .period_ms = 1.0});
  if (CompiledOutSampler(sampler)) return;
  sampler.Tick();

  // First window: 10 observations in (1,2].
  for (int i = 0; i < 10; ++i) h->Observe(1.5);
  clock = 1.0;
  sampler.Tick();
  ASSERT_EQ(sampler.windows().back().histograms.size(), 1u);
  const auto& hw1 = sampler.windows().back().histograms[0].second;
  EXPECT_EQ(hw1.count, 10u);
  EXPECT_DOUBLE_EQ(hw1.p50, 1.5);

  // Second window: 10 observations in (2,4] — the per-window p50 moves even
  // though the cumulative histogram still remembers the first batch.
  for (int i = 0; i < 10; ++i) h->Observe(3.0);
  clock = 2.0;
  sampler.Tick();
  const auto& hw2 = sampler.windows().back().histograms[0].second;
  EXPECT_EQ(hw2.count, 10u);
  EXPECT_DOUBLE_EQ(hw2.p50, 3.0);

  const std::string json = sampler.ToJson();
  EXPECT_NE(json.find("\"transport.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- Prometheus export ------------------------------------------------------

TEST(Prometheus, SanitizesMetricNames) {
  using obs::introspect::PrometheusName;
  EXPECT_EQ(PrometheusName("client.queries"), "lbsagg_client_queries");
  EXPECT_EQ(PrometheusName("transport.shard03.attempts", "x"),
            "x_transport_shard03_attempts");
  EXPECT_EQ(PrometheusName("weird-name!", ""), "weird_name_");
}

TEST(Prometheus, ExportsCountersGaugesAndCumulativeHistograms) {
  obs::MetricsRegistry registry;
  registry.GetCounter("client.queries")->Add(42);
  registry.GetGauge("service.scheduler.active")->Set(7.0);
  obs::Histogram* h = registry.GetHistogram("lat", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(9.0);

  const std::string text =
      obs::introspect::ToPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE lbsagg_client_queries counter\n"
                      "lbsagg_client_queries 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lbsagg_service_scheduler_active gauge\n"
                      "lbsagg_service_scheduler_active 7\n"),
            std::string::npos);
  // Buckets are cumulative: le="2" includes the le="1" observation.
  EXPECT_NE(text.find("lbsagg_lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lbsagg_lat_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lbsagg_lat_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lbsagg_lat_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("lbsagg_lat_count 3\n"), std::string::npos);
}

// --- Statusz builder --------------------------------------------------------

TEST(Statusz, RendersMetaMetricsAndSections) {
  obs::introspect::Statusz status;
  status.SetMeta("mode", "test");
  status.SetMetaNum("active", 3);
  obs::MetricsRegistry registry;
  registry.GetCounter("c")->Add(1);
  status.SetSnapshot(registry.Snapshot());
  status.AddJsonSection("custom", "{\"x\":1}");
  // User strings arrive escaped.
  status.SetMeta("note", "say \"hi\"\\");
  status.AddJsonSection("odd\"name", "1");

  const std::string json = status.ToJson();
  if (!obs::kObsEnabled) {
    // The stub renders a valid, empty page and drops everything set.
    EXPECT_NE(json.find("\"statusz_version\":1"), std::string::npos);
    EXPECT_EQ(json.find("mode"), std::string::npos);
    EXPECT_EQ(status.ToText(), "statusz: observability disabled\n");
    return;
  }
  EXPECT_NE(json.find("\"statusz_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"active\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"custom\": {\"x\":1}"), std::string::npos);
  EXPECT_NE(json.find(R"("note": "say \"hi\"\\")"), std::string::npos);
  EXPECT_NE(json.find(R"("odd\"name": 1)"), std::string::npos);

  const std::string text = status.ToText();
  EXPECT_NE(text.find("mode: test"), std::string::npos);
  EXPECT_NE(text.find("--- custom ---"), std::string::npos);
}

// --- Tracer open-span lifecycle ---------------------------------------------

TEST(TracerOpenSpans, CloseEmitsCompleteEvent) {
  obs::Tracer tracer;
  const uint64_t ticket = tracer.OpenSpan("work", "cat", 100.0);
  EXPECT_EQ(tracer.open_span_count(), 1u);
  EXPECT_EQ(tracer.event_count(), 0u);  // nothing emitted while open
  EXPECT_TRUE(tracer.CloseSpan(ticket, 250.0));
  EXPECT_EQ(tracer.open_span_count(), 0u);
  EXPECT_EQ(tracer.event_count(), 1u);
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":150"), std::string::npos);
  // A ticket resolves exactly once.
  EXPECT_FALSE(tracer.CloseSpan(ticket, 300.0));
}

TEST(TracerOpenSpans, TruncatedCloseMarksCategory) {
  obs::Tracer tracer;
  const uint64_t ticket = tracer.OpenSpan("work", "cat", 0.0);
  EXPECT_TRUE(tracer.CloseSpanTruncated(ticket, 10.0));
  EXPECT_NE(tracer.ToChromeTraceJson().find("\"cat\":\"cat.truncated\""),
            std::string::npos);
}

TEST(TracerOpenSpans, DropEmitsNothing) {
  obs::Tracer tracer;
  const uint64_t ticket = tracer.OpenSpan("work", "cat", 0.0);
  EXPECT_TRUE(tracer.DropSpan(ticket));
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_FALSE(tracer.DropSpan(ticket));
}

TEST(TracerOpenSpans, FlushTruncatesEverythingOpen) {
  obs::Tracer tracer;
  tracer.OpenSpan("a", "cat", 0.0);
  tracer.OpenSpan("b", "cat", 5.0);
  EXPECT_EQ(tracer.FlushOpenSpans(20.0), 2u);
  EXPECT_EQ(tracer.open_span_count(), 0u);
  EXPECT_EQ(tracer.event_count(), 2u);
}

TEST(Tracer, MirrorsCompletedSpansIntoFlightRecorder) {
  FlightRecorder recorder(64);
  obs::Tracer tracer;
  tracer.SetFlightRecorder(&recorder);
  tracer.AddComplete("span.x", "cat", 10.0, 5.0);
  { obs::ScopedSpan span(&tracer, "span.y"); }
  if (CompiledOutRecorder(recorder)) return;
  EXPECT_EQ(recorder.published(), 2u);
  std::vector<FlightRecord> out;
  recorder.Drain(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_STREQ(out[0].name, "span.x");
  EXPECT_EQ(out[0].kind, FlightRecord::Kind::kSpan);
  EXPECT_DOUBLE_EQ(out[0].ts_us, 10.0);
  EXPECT_DOUBLE_EQ(out[0].dur_us, 5.0);
  EXPECT_STREQ(out[1].name, "span.y");
}

// --- Service span lifecycle regression --------------------------------------

TEST(ServiceSpans, CancelAndDeadlineEmitTruncatedSpans) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  obs::Tracer tracer;
  ServiceOptions sopts;
  sopts.tracer = &tracer;
  EstimationService svc({{.meta = &server}}, sopts);

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 5000;
  spec.seed = 3;

  // Cancelled mid-run.
  const SessionId cancelled = svc.Submit(spec);
  svc.RunSlice();
  ASSERT_TRUE(svc.Cancel(cancelled));

  // Deadline exceeded while running.
  SessionSpec dspec = spec;
  dspec.deadline_ms = 2;  // fallback clock: one ms per slice
  const SessionId dead = svc.Submit(dspec);
  svc.RunUntilIdle();
  EXPECT_EQ(svc.Poll(dead).state, SessionState::kDeadlineExceeded);

  // Completed normally.
  SessionSpec cspec = spec;
  cspec.budget = 60;
  const SessionId done = svc.Submit(cspec);
  svc.RunUntilIdle();
  EXPECT_EQ(svc.Poll(done).state, SessionState::kCompleted);

  EXPECT_EQ(tracer.open_span_count(), 0u);  // nothing leaked open
  const std::string json = tracer.ToChromeTraceJson();
  // Cancel + deadline spans survive as truncated; the completed session's
  // span keeps the plain category. (The trace also carries client/estimator
  // spans — count categories, not totals.)
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"service.truncated\",\"ph\""),
            2u);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"service\",\"ph\""), 1u);
}

TEST(ServiceSpans, RejectedSessionEmitsNoSpan) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  obs::Tracer tracer;
  ServiceOptions sopts;
  sopts.tracer = &tracer;
  EstimationService svc({{.meta = &server}}, sopts);

  SessionSpec bad;
  bad.budget = 0;  // invalid: rejected at Submit
  const SessionId id = svc.Submit(bad);
  EXPECT_EQ(svc.Poll(id).state, SessionState::kRejected);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(ServiceSpans, TeardownFlushesLiveSessionsAsTruncated) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  obs::Tracer tracer;
  {
    ServiceOptions sopts;
    sopts.tracer = &tracer;
    EstimationService svc({{.meta = &server}}, sopts);
    SessionSpec spec;
    spec.family = EstimatorFamily::kNno;
    spec.budget = 5000;
    spec.seed = 3;
    svc.Submit(spec);
    svc.RunSlice();  // running, far from done
    // The service dies with the session still live.
  }
  EXPECT_EQ(CountOccurrences(tracer.ToChromeTraceJson(),
                             "\"cat\":\"service.truncated\",\"ph\""),
            1u);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

// --- Service events into the flight recorder --------------------------------

TEST(ServiceRecorder, LifecycleEventsRecordedWithoutAnyTrigger) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  FlightRecorder recorder(1024);
  ServiceOptions sopts;
  sopts.recorder = &recorder;
  EstimationService svc({{.meta = &server}}, sopts);

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 60;
  spec.seed = 3;
  const SessionId id = svc.Submit(spec);
  svc.RunUntilIdle();
  EXPECT_EQ(svc.Poll(id).state, SessionState::kCompleted);
  if (CompiledOutRecorder(recorder)) return;

  std::vector<FlightRecord> out;
  recorder.Drain(&out);
  ASSERT_GE(out.size(), 3u);
  EXPECT_STREQ(out.front().name, "submitted");
  EXPECT_EQ(out.front().a, id);
  bool saw_started = false, saw_progress = false, saw_finished = false;
  for (const FlightRecord& r : out) {
    EXPECT_EQ(r.kind, FlightRecord::Kind::kEvent);
    if (std::strcmp(r.name, "started") == 0) saw_started = true;
    if (std::strcmp(r.name, "progress") == 0) saw_progress = true;
    if (std::strcmp(r.name, "finished") == 0) saw_finished = true;
  }
  EXPECT_TRUE(saw_started);
  EXPECT_TRUE(saw_progress);
  EXPECT_TRUE(saw_finished);
}

// --- Convergence telemetry and statusz ---------------------------------------

TEST(Introspection, SessionsReportBudgetBurnDownAndTrajectory) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});

  SessionSpec spec;
  spec.family = EstimatorFamily::kLr;
  spec.budget = 400;
  spec.seed = 11;
  spec.deadline_ms = 1e6;
  const SessionId id = svc.Submit(spec);
  for (int i = 0; i < 8; ++i) svc.RunSlice();

  const std::vector<SessionIntrospection> rows = svc.IntrospectSessions();
  ASSERT_EQ(rows.size(), 1u);
  const SessionIntrospection& row = rows[0];
  EXPECT_EQ(row.id, id);
  EXPECT_EQ(row.state, SessionState::kRunning);
  EXPECT_EQ(row.budget, 400u);
  EXPECT_GT(row.queries_used, 0u);
  EXPECT_LT(row.queries_used, 400u);  // mid-flight
  EXPECT_TRUE(row.has_deadline);
  EXPECT_GT(row.deadline_slack_ms, 0.0);
  ASSERT_EQ(row.aggregates.size(), 1u);
  const AggregateIntrospection& agg = row.aggregates[0];
  if (obs::kObsEnabled) {
    EXPECT_EQ(agg.trajectory.size(), row.rounds);
    for (size_t i = 1; i < agg.trajectory.size(); ++i) {
      EXPECT_GE(agg.trajectory[i].queries, agg.trajectory[i - 1].queries);
    }
    // The trajectory's tail is the live estimate.
    ASSERT_FALSE(agg.trajectory.empty());
    EXPECT_TRUE(SameBits(agg.trajectory.back().estimate, agg.estimate));
  } else {
    // Convergence telemetry compiles out; the burn-down above is scheduler
    // state and stays.
    EXPECT_TRUE(agg.trajectory.empty());
  }

  svc.RunUntilIdle();
  const std::vector<SessionIntrospection> done = svc.IntrospectSessions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].state, SessionState::kCompleted);
  EXPECT_GE(done[0].queries_used, 400u);
}

TEST(Introspection, StatuszSnapshotsTheWholeStack) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  obs::MetricsRegistry registry;
  FlightRecorder recorder(256);
  ServiceOptions sopts;
  sopts.registry = &registry;
  sopts.recorder = &recorder;
  EstimationService svc({{.meta = &server}}, sopts);

  double clock = 0.0;
  TimeSeriesSampler sampler(
      {.registry = &registry, .clock_ms = [&clock] { return clock; },
       .period_ms = 1.0});
  sampler.Tick();

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 60;
  spec.seed = 3;
  spec.principal = "tenant-a";
  svc.Submit(spec);
  while (svc.RunSlice()) {
    clock += 1.0;
    sampler.MaybeTick();
  }

  service::ServiceIntrospector intro({.service = &svc, .sampler = &sampler,
                                      .recorder = &recorder,
                                      .registry = &registry});
  const std::string json = intro.BuildStatusz().ToJson();
  if (!obs::kObsEnabled) {
    // BuildStatusz and PrometheusText degrade to the stubs: an empty page
    // and an empty scrape.
    EXPECT_EQ(json, obs::introspect::Statusz().ToJson());
    EXPECT_EQ(intro.PrometheusText(), obs::introspect::ToPrometheusText(
                                          obs::MetricsRegistry().Snapshot()));
    return;
  }
  EXPECT_NE(json.find("\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"sessions\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant-a\""), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"trajectory\""), std::string::npos);
  EXPECT_NE(json.find("service.sessions.submitted"), std::string::npos);

  const std::string prom = intro.PrometheusText();
  EXPECT_NE(prom.find("lbsagg_service_sessions_submitted 1"),
            std::string::npos);
}

// --- SLO watchdog ------------------------------------------------------------

TEST(Introspection, SessionRowEscapesUserStrings) {
  // Called directly, so it also runs with instrumentation compiled out.
  SessionIntrospection row;
  row.id = 7;
  row.state = SessionState::kRunning;
  row.principal = "ten\"ant\\x";
  row.family = EstimatorFamily::kLr;
  row.budget = 500;
  row.queries_used = 120;
  row.rounds = 9;
  row.dedup_hits = 4;
  row.submit_ms = 1.5;
  row.start_ms = 2.25;
  row.has_deadline = true;
  row.deadline_ms = 1000;
  row.deadline_slack_ms = 996.75;
  row.aggregates.push_back({"COUNT(\"all\")",
                            1234.5678,
                            12.345678,
                            {{60, 1200.1, 30.5}, {120, 1234.5678, 12.345678}}});
  EXPECT_EQ(
      SessionIntrospectionJson(row),
      R"json({"id":7,"state":"running","principal":"ten\"ant\\x",)json"
      R"json("family":"lr","budget":500,"queries_used":120,"rounds":9,)json"
      R"json("dedup_hits":4,"submit_ms":1.5,"start_ms":2.25,"end_ms":-1,)json"
      R"json("deadline_ms":1000,"deadline_slack_ms":996.75,"aggregates":[)json"
      R"json({"name":"COUNT(\"all\")","estimate":1234.57,)json"
      R"json("half_width":12.3457,"trajectory":[)json"
      R"json({"queries":60,"estimate":1200.1,"half_width":30.5},)json"
      R"json({"queries":120,"estimate":1234.57,"half_width":12.3457}]}]})json");
}

TEST(SloWatchdog, FiresDeadlineAtRiskOnceWhenSlackRunsOut) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});
  SloWatchdog watchdog(&svc, {.deadline_slack_warn_ms = 0.0});

  int at_risk = 0;
  svc.triggers().Add(SessionEventKind::kDeadlineAtRisk,
                     [&at_risk](const SessionEvent& e) {
                       EXPECT_EQ(e.kind, SessionEventKind::kDeadlineAtRisk);
                       ++at_risk;
                     });

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.budget = 5000;
  spec.seed = 3;
  spec.deadline_ms = 4;  // fallback clock: slack gone after 4 slices
  svc.Submit(spec);
  for (int i = 0; i < 4 && svc.RunSlice(); ++i) watchdog.Check();
  // Slack is now <= 0 while the session still runs.
  watchdog.Check();
  watchdog.Check();  // verdicts fire once, not per scan
  EXPECT_EQ(at_risk, 1);
  EXPECT_EQ(watchdog.deadline_fired(), 1u);
  svc.RunUntilIdle();
}

TEST(SloWatchdog, FiresSloStalledWhenHalfWidthStopsDropping) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  EstimationService svc({{.meta = &server}});
  // An impossible slope target: any real session "stalls" immediately once
  // the observation window has enough charged queries.
  SloWatchdog watchdog(
      &svc, {.min_halfwidth_drop_per_query = 1e9,
             .min_queries_between_checks = 16});

  int stalled = 0;
  svc.triggers().Add(SessionEventKind::kSloStalled,
                     [&stalled](const SessionEvent& e) {
                       EXPECT_EQ(e.kind, SessionEventKind::kSloStalled);
                       ++stalled;
                     });

  SessionSpec spec;
  spec.family = EstimatorFamily::kLr;
  spec.budget = 300;
  spec.seed = 11;
  svc.Submit(spec);
  while (svc.RunSlice()) watchdog.Check();
  EXPECT_EQ(stalled, 1);
  EXPECT_EQ(watchdog.stalled_fired(), 1u);
}

// --- Determinism: the plane observes, never perturbs -------------------------

TEST(IntrospectionDeterminism, EstimatesBitIdenticalWithPlaneAttached) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  SessionSpec spec;
  spec.family = EstimatorFamily::kLr;
  spec.budget = 300;
  spec.seed = 11;

  // Bare run.
  std::vector<double> bare;
  {
    EstimationService svc({{.meta = &server}});
    const SessionId id = svc.Submit(spec);
    svc.RunUntilIdle();
    bare = svc.Poll(id).estimates;
  }

  // Same run with recorder + sampler + tracer + watchdog all live.
  std::vector<double> observed;
  {
    obs::MetricsRegistry registry;
    FlightRecorder recorder(512);
    obs::Tracer tracer;
    tracer.SetFlightRecorder(&recorder);
    ServiceOptions sopts;
    sopts.registry = &registry;
    sopts.recorder = &recorder;
    sopts.tracer = &tracer;
    EstimationService svc({{.meta = &server}}, sopts);
    SloWatchdog watchdog(&svc);
    double clock = 0.0;
    TimeSeriesSampler sampler(
        {.registry = &registry, .clock_ms = [&clock] { return clock; },
         .period_ms = 2.0});
    sampler.Tick();
    const SessionId id = svc.Submit(spec);
    while (svc.RunSlice()) {
      clock += 1.0;
      sampler.MaybeTick();
      watchdog.Check();
      svc.IntrospectSessions();  // statusz mid-run must not perturb
    }
    observed = svc.Poll(id).estimates;
    // The plane was live (with instrumentation compiled out its stubs keep
    // nothing, and the estimates below must still match).
    if (obs::kObsEnabled) {
      EXPECT_GT(recorder.published(), 0u);
      EXPECT_GT(sampler.windows_cut(), 0u);
    } else {
      EXPECT_EQ(recorder.published(), 0u);
      EXPECT_EQ(sampler.windows_cut(), 0u);
    }
  }

  ASSERT_EQ(bare.size(), observed.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_TRUE(SameBits(bare[i], observed[i]));
  }
}

// --- TSAN race: drain vs scheduler vs dispatcher workers ---------------------

TEST(IntrospectionRaces, DrainRacesSubmitPollCancelAndTriggers) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  obs::MetricsRegistry registry;
  FlightRecorder recorder(512);
  obs::Tracer tracer;
  tracer.SetFlightRecorder(&recorder);
  ServiceOptions sopts;
  sopts.registry = &registry;
  sopts.recorder = &recorder;
  sopts.tracer = &tracer;
  sopts.dispatcher_workers = 4;  // workers emit transport spans concurrently
  EstimationService svc({{.meta = &server}}, sopts);

  // Re-entrant trigger: a finishing session submits a follow-up from inside
  // the fire, while every event also lands in the recorder.
  int resubmits = 0;
  svc.triggers().Add(SessionEventKind::kFinished,
                     [&svc, &resubmits](const SessionEvent&) {
                       if (resubmits >= 3) return;
                       ++resubmits;
                       SessionSpec follow;
                       follow.family = EstimatorFamily::kNno;
                       follow.budget = 40;
                       follow.seed = 7;
                       svc.Submit(follow);
                     });

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> drained_total{0};
  std::thread drainer([&] {
    std::vector<FlightRecord> out;
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      drained_total.fetch_add(recorder.Drain(&out),
                              std::memory_order_relaxed);
    }
  });

  std::vector<SessionId> ids;
  for (int i = 0; i < 6; ++i) {
    SessionSpec spec;
    spec.family = EstimatorFamily::kNno;
    spec.budget = 60;
    spec.seed = 3 + static_cast<uint64_t>(i);
    ids.push_back(svc.Submit(spec));
  }
  int slices = 0;
  while (svc.RunSlice()) {
    ++slices;
    for (const SessionId id : ids) svc.Poll(id);
    if (slices == 10) svc.Cancel(ids[0]);
  }

  stop.store(true, std::memory_order_release);
  drainer.join();
  std::vector<FlightRecord> tail;
  drained_total.fetch_add(recorder.Drain(&tail), std::memory_order_relaxed);
  EXPECT_EQ(recorder.published(), drained_total.load());
  EXPECT_EQ(resubmits, 3);
  EXPECT_EQ(svc.queued() + svc.active(), 0u);
}

// --- The fig12 fingerprint with the plane attached ---------------------------

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// The exact legacy computation engine_regression_test pins, re-run with the
// flight recorder, sampler, tracer, and metric plane all attached: the
// introspection plane must not move a single bit of the trace.
TEST(IntrospectionDeterminism, LegacyFig12FingerprintSurvivesThePlane) {
  UsaOptions uopts;
  uopts.num_pois = 6000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa.columns.category, "restaurant"), "COUNT(restaurants)");

  obs::MetricsRegistry registry;
  FlightRecorder recorder(4096);
  obs::Tracer tracer;
  tracer.SetFlightRecorder(&recorder);
  double clock = 0.0;
  TimeSeriesSampler series(
      {.registry = &registry, .clock_ms = [&clock] { return clock; },
       .period_ms = 50.0});
  series.Tick();

  uint64_t hash = 0;
  for (uint64_t seed = 42; seed < 45; ++seed) {
    LrClient client(&server, {.k = 5, .budget = 4000, .registry = &registry,
                              .tracer = &tracer});
    LrAggOptions opts;
    opts.seed = seed;
    opts.registry = &registry;
    opts.tracer = &tracer;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver, {&registry, &tracer});
    const engine::AggregateQuery* query = eng.AddAggregate(spec);
    // The run loop one round per call, with the sampler ticking live
    // between calls.
    while (RunEngine(&eng, {.budget = 4000, .max_rounds = 1}) == 1) {
      clock += 1.0;
      series.MaybeTick();
    }
    for (const TracePoint& tp : query->trace()) {
      uint64_t bits;
      std::memcpy(&bits, &tp.estimate, sizeof bits);
      hash = Mix(hash, tp.queries);
      hash = Mix(hash, bits);
    }
  }
#ifndef LBSAGG_OBS_DISABLED
  EXPECT_GT(recorder.published(), 0u);
  EXPECT_GT(series.windows_cut(), 0u);
#endif
  EXPECT_EQ(hash, 0x8e13737b33817270ull);
}

}  // namespace
}  // namespace service
}  // namespace lbsagg
