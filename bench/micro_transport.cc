// Transport-layer micro-benchmarks: the direct in-process wire, the cost
// of the simulated wire's policy pipeline (a one-shard ShardedTransport),
// the four-shard gather, and dispatcher batch throughput at 1/2/4/8
// workers. These are the numbers tracked in BENCH_transport.json
// (regenerate with
//   build/bench/micro_transport --benchmark_format=json > BENCH_transport.json
// on a quiet machine; see DESIGN.md "Transport & fault model").

#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_main.h"

#include "lbs/client.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "obs/metrics.h"
#include "transport/async_dispatcher.h"
#include "transport/sharded_transport.h"
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

ShardedTransportOptions FlakyOptions() {
  ShardedTransportOptions topts;
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
// metrics), no backend work. The wire holds every plan's state until it is
// fulfilled, so the plans are fulfilled 256 at a time outside the timed
// region.
void BM_SimulatedPrepare(benchmark::State& state) {
  constexpr size_t kPending = 256;
  Fixture* fixture = SharedFixture();
  ShardedTransport transport(&fixture->server, FlakyOptions());
  const Vec2 q = fixture->usa.dataset->box().Center();
  std::vector<TransportPlan> plans;
  plans.reserve(kPending);
  for (auto _ : state) {
    plans.push_back(transport.Prepare(q, 5));
    if (plans.size() == kPending) {
      state.PauseTiming();
      for (const TransportPlan& plan : plans) transport.Fulfill(plan, q, 5, {});
      plans.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedPrepare);

// Full simulated query: pipeline + backend kNN + truncation.
void BM_SimulatedQuery(benchmark::State& state) {
  Fixture* fixture = SharedFixture();
  ShardedTransport transport(&fixture->server, FlakyOptions());
  Rng rng(3);
  const Box& box = fixture->usa.dataset->box();
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.Query(box.SamplePoint(rng), 5, {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedQuery);

// The four-shard gather on the fleet's data shape: 2*10^5 China-scenario
// users in city clusters, so the four Z-order shard boxes overlap and a
// query often lies inside several of them. Queries come from the
// scenario's census, k = 5, over a clean wire. points_per_query is the k-d
// tree points tested per query, counted on an untimed pass over a twin
// server that publishes its search counters.
struct ShardedFixture {
  static constexpr size_t kQueries = 4096;
  ChinaScenario china;
  ShardedLbsServer server;
  std::vector<Vec2> queries;
  double points_per_query = 0.0;

  ShardedFixture()
      : china(BuildChinaScenario({.num_users = 200000})),
        server(china.dataset.get(), Options(nullptr)) {
    Rng rng(5);
    for (size_t i = 0; i < kQueries; ++i) {
      queries.push_back(china.census.Sample(rng));
    }
    obs::MetricsRegistry stats;
    const ShardedLbsServer counted(china.dataset.get(), Options(&stats));
    ShardedTransport wire(&counted);
    for (const Vec2& q : queries) (void)wire.Query(q, 5, nullptr);
    points_per_query =
        static_cast<double>(
            stats.GetCounter("spatial.kdtree.points_tested")->Value()) /
        kQueries;
  }

  static ShardedServerOptions Options(obs::MetricsRegistry* stats) {
    ShardedServerOptions options{.num_shards = 4, .build_threads = 1};
    options.server.max_k = 5;
    options.server.stats_registry = stats;
    return options;
  }
};

void BM_ShardedQuery(benchmark::State& state) {
  static const ShardedFixture* fixture = new ShardedFixture();
  ShardedTransport transport(&fixture->server);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport.Query(
        fixture->queries[i++ % ShardedFixture::kQueries], 5, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["points_per_query"] = fixture->points_per_query;
}
BENCHMARK(BM_ShardedQuery);

// Dispatcher throughput: one batch of independent probes per iteration,
// pipelined over N workers. items_per_second is the headline number
// tracked at 1/2/4/8 workers in BENCH_transport.json.
void BM_DispatcherBatch(benchmark::State& state) {
  constexpr int kBatch = 256;
  Fixture* fixture = SharedFixture();
  ShardedTransport transport(&fixture->server, FlakyOptions());
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
