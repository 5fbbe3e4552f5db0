// Observability-plane micro-benchmarks: the per-increment cost of the
// metric cells (relaxed-atomic counter/gauge/histogram, alone and under
// thread contention), name→cell resolution, snapshot/drain, and span
// recording. These are the numbers tracked in BENCH_obs.json (regenerate
// with
//   ./build/bench/micro_obs --benchmark_format=json > BENCH_obs.json
// on a quiet machine). The end-to-end overhead budget — instrumented
// micro_hotpath within 1% of an LBSAGG_OBS_DISABLED build — is enforced
// separately by tools/check.sh.

#include <benchmark/benchmark.h>

#include "common/bench_main.h"

#include "obs/introspect/flight_recorder.h"
#include "obs/introspect/prometheus.h"
#include "obs/introspect/sampler.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace lbsagg {
namespace {

// One relaxed fetch_add through a pre-resolved ref: the steady-state cost
// every instrumented hot path pays per event.
void BM_CounterAdd(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const obs::CounterRef counter =
      obs::GetCounter(&registry, "bench.counter");
  for (auto _ : state) counter.Add(1);
}
BENCHMARK(BM_CounterAdd);

// The same ref shared by several threads: contended cache line, the
// worst case for dispatcher workers hammering transport.sharded.fulfills.
void BM_CounterAddContended(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  const obs::CounterRef counter =
      obs::GetCounter(&registry, "bench.contended");
  for (auto _ : state) counter.Add(1);
}
BENCHMARK(BM_CounterAddContended)->Threads(4);

// Default-constructed (unwired) ref: the cost instrumentation pays when a
// component opts out — one null test, no atomic.
void BM_CounterAddUnwired(benchmark::State& state) {
  const obs::CounterRef counter;
  for (auto _ : state) counter.Add(1);
}
BENCHMARK(BM_CounterAddUnwired);

void BM_GaugeSet(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const obs::GaugeRef gauge = obs::GetGauge(&registry, "bench.gauge");
  double v = 0.0;
  for (auto _ : state) gauge.Set(v += 1.0);
}
BENCHMARK(BM_GaugeSet);

// Binary search over decade bounds + two RMWs + a CAS on the running sum.
void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const obs::HistogramRef hist = obs::GetHistogram(
      &registry, "bench.hist", obs::DecadeBounds(1.0, 1e9));
  double v = 1.0;
  for (auto _ : state) {
    hist.Observe(v);
    v = v < 1e9 ? v * 3.0 : 1.0;
  }
}
BENCHMARK(BM_HistogramObserve);

// Name→cell resolution (registry mutex + map lookup). Construction-time
// only in instrumented code; tracked to keep it that way.
void BM_GetCounterByName(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::GetCounter(&registry, "estimator.lr.rounds"));
  }
}
BENCHMARK(BM_GetCounterByName);

// Copying the full metric plane, sized like a real run report (the counter
// set flaky_service publishes is ~25 cells plus a few histograms).
void BM_Snapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 25; ++i) {
    registry.GetCounter("bench.counter." + std::to_string(i))->Add(i);
  }
  for (int i = 0; i < 3; ++i) {
    registry.GetHistogram("bench.hist." + std::to_string(i),
                          obs::DecadeBounds(1.0, 1e9))
        ->Observe(i + 1.0);
  }
  for (auto _ : state) benchmark::DoNotOptimize(registry.Snapshot());
}
BENCHMARK(BM_Snapshot);

// A span on a null tracer: the always-on cost at every instrumented scope
// when tracing is off (two predictable branches).
void BM_ScopedSpanNullTracer(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span(nullptr, "estimator.round", "estimator");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ScopedSpanNullTracer);

// A live span: two clock reads plus one locked vector append.
void BM_ScopedSpanActive(benchmark::State& state) {
  obs::Tracer tracer;
  for (auto _ : state) {
    obs::ScopedSpan span(&tracer, "estimator.round", "estimator");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ScopedSpanActive);

// One flight-recorder publish into a ring with headroom: a memcpy plus two
// atomics — the per-span cost the recorder adds to a traced hot path.
void BM_FlightRecorderPublish(benchmark::State& state) {
  obs::introspect::FlightRecorder recorder(1 << 16);
  obs::introspect::FlightRecord record;
  record.SetName("estimator.round");
  std::vector<obs::introspect::FlightRecord> drained;
  size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.TryPublish(record));
    if ((++n & 0x7fff) == 0) {
      state.PauseTiming();
      drained.clear();
      recorder.Drain(&drained);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_FlightRecorderPublish);

// Several producers CAS-claiming slots of one shared ring — dispatcher
// workers publishing spans mid-Fulfill. Drops (ring full) count, never
// block, so the loop runs flat out.
void BM_FlightRecorderPublishContended(benchmark::State& state) {
  static obs::introspect::FlightRecorder recorder(1 << 10);
  obs::introspect::FlightRecord record;
  record.SetName("transport.attempt");
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.TryPublish(record));
  }
}
BENCHMARK(BM_FlightRecorderPublishContended)->Threads(4);

// Draining a full ring, per record: one CAS plus a memcpy out.
void BM_FlightRecorderDrain(benchmark::State& state) {
  obs::introspect::FlightRecorder recorder(1 << 10);
  obs::introspect::FlightRecord record;
  record.SetName("service.session");
  std::vector<obs::introspect::FlightRecord> drained;
  drained.reserve(recorder.capacity());
  for (auto _ : state) {
    state.PauseTiming();
    while (recorder.TryPublish(record)) {
    }
    drained.clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(recorder.Drain(&drained));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(recorder.capacity()));
}
BENCHMARK(BM_FlightRecorderDrain);

// One sampler window over a realistically sized registry: snapshot, diff
// against the previous snapshot, quantiles from the histogram deltas.
void BM_SamplerTick(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 25; ++i) {
    registry.GetCounter("bench.counter." + std::to_string(i))->Add(i);
  }
  for (int i = 0; i < 3; ++i) {
    registry.GetHistogram("bench.hist." + std::to_string(i),
                          obs::DecadeBounds(1.0, 1e9))
        ->Observe(i + 1.0);
  }
  double now = 0.0;
  obs::introspect::TimeSeriesSampler sampler(
      {.registry = &registry,
       .clock_ms = [&now] { return now; },
       .period_ms = 1.0,
       .max_windows = 8});
  sampler.Tick();  // prime the baseline outside the loop
  for (auto _ : state) {
    registry.GetCounter("bench.counter.0")->Add(1);
    now += 1.0;
    sampler.Tick();
  }
}
BENCHMARK(BM_SamplerTick);

// Rendering the scrape page for the same registry: the full cost of one
// Prometheus pull.
void BM_PrometheusExport(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 25; ++i) {
    registry.GetCounter("bench.counter." + std::to_string(i))->Add(i);
  }
  for (int i = 0; i < 3; ++i) {
    registry.GetHistogram("bench.hist." + std::to_string(i),
                          obs::DecadeBounds(1.0, 1e9))
        ->Observe(i + 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::introspect::ToPrometheusText(registry.Snapshot()));
  }
}
BENCHMARK(BM_PrometheusExport);

}  // namespace
}  // namespace lbsagg

LBSAGG_BENCHMARK_MAIN();
