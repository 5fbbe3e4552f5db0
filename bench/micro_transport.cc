// Transport-layer micro-benchmarks: the direct in-process wire, the cost
// of the simulated policy pipeline, and dispatcher batch throughput at
// 1/2/4/8 workers. These are the numbers tracked in BENCH_transport.json
// (regenerate with
//   ./build/bench/micro_transport --benchmark_format=json \
//       > BENCH_transport.json
// on a quiet machine; see DESIGN.md "Transport & fault model").

#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_main.h"

#include "lbs/client.h"
#include "lbs/server.h"
#include "transport/async_dispatcher.h"
#include "transport/simulated_transport.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

struct Fixture {
  UsaScenario usa;
  LbsServer server;

  explicit Fixture(uint64_t seed)
      : usa(BuildUsaScenario({.num_pois = 5000, .seed = seed})),
        server(usa.dataset.get(), {.max_k = 10}) {}
};

Fixture* SharedFixture() {
  static Fixture* fixture = new Fixture(11);
  return fixture;
}

SimulatedTransportOptions FlakyOptions() {
  SimulatedTransportOptions topts;
  topts.latency.kind = LatencyOptions::Kind::kLognormal;
  topts.faults.transient_error_rate = 0.05;
  topts.faults.timeout_rate = 0.02;
  topts.faults.truncate_rate = 0.03;
  topts.retry.max_attempts = 4;
  return topts;
}

// A client over a DirectTransport, the wire of every client built without
// one: the server's kNN plus one virtual dispatch and a reply struct.
void BM_ClientDirectTransport(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  DirectTransport transport(&fixture->server);
  LrClient client(&fixture->server, {.k = 5}, &transport);
  Rng rng(3);
  const Box& box = fixture->usa.dataset->box();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Query(box.SamplePoint(rng)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClientDirectTransport);

// Policy pipeline alone (token bucket + fault/latency/backoff draws +
// metrics), no backend work.
void BM_SimulatedPrepare(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  SimulatedTransport transport(&fixture->server, FlakyOptions());
  const Vec2 q = fixture->usa.dataset->box().Center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.Prepare(q, 5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedPrepare);

// Full simulated query: pipeline + backend kNN + truncation.
void BM_SimulatedQuery(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  SimulatedTransport transport(&fixture->server, FlakyOptions());
  Rng rng(3);
  const Box& box = fixture->usa.dataset->box();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.Query(box.SamplePoint(rng), 5, {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedQuery);

// Dispatcher throughput: one batch of independent probes per iteration,
// pipelined over N workers. items_per_second is the headline number
// tracked at 1/2/4/8 workers in BENCH_transport.json.
void BM_DispatcherBatch(benchmark::State& state) {
  constexpr int kBatch = 256;
  Fixture* fixture = SharedFixture();
  SimulatedTransport transport(&fixture->server, FlakyOptions());
  AsyncDispatcher dispatcher(
      &transport,
      {.num_workers = static_cast<unsigned>(state.range(0)),
       .queue_capacity = 64});
  Rng rng(3);
  const Box& box = fixture->usa.dataset->box();
  std::vector<Vec2> batch;
  batch.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) batch.push_back(box.SamplePoint(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatcher.QueryBatch(batch, 5));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_DispatcherBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace
}  // namespace lbsagg

LBSAGG_BENCHMARK_MAIN();
