// SweepEstimators fans (spec, seed) tasks out over worker threads. Each
// task is a pure function of its seed (every run owns its client and RNG;
// the shared server and sampler are immutable), so the traces must be
// bit-identical no matter how many threads execute them or how the atomic
// counter interleaves. This is what makes every bench/fig*.cc number
// reproducible on machines with different core counts.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bench_common.h"
#include "engine/engine.h"
#include "engine/nno_resolver.h"
#include "lbs/sharded_server.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/service.h"
#include "transport/async_dispatcher.h"
#include "transport/metrics.h"
#include "transport/sharded_transport.h"

namespace lbsagg {
namespace bench {
namespace {

std::map<std::string, std::vector<RunResult>> RunSweep(unsigned num_threads) {
  UsaOptions usa_opts;
  usa_opts.num_pois = 400;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(usa_opts));
  static LbsServer* server = new LbsServer(usa->dataset.get(), {.max_k = 10});
  static const UniformSampler* sampler =
      new UniformSampler(usa->dataset->box());

  const AggregateSpec aggregate = AggregateSpec::Count();
  const std::vector<EstimatorSpec> specs = {
      MakeLrSpec("lr", server, sampler, aggregate, /*k=*/3),
      MakeNnoSpec("nno", server, aggregate, /*k=*/3),
  };
  return SweepEstimators(specs, /*runs=*/6, /*budget=*/300,
                         /*seed_base=*/42, num_threads);
}

TEST(SweepDeterminism, OneVersusManyThreadsBitIdentical) {
  const auto serial = RunSweep(1);
  const auto parallel = RunSweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [name, runs] : serial) {
    const auto it = parallel.find(name);
    ASSERT_NE(it, parallel.end()) << name;
    ASSERT_EQ(runs.size(), it->second.size()) << name;
    for (size_t r = 0; r < runs.size(); ++r) {
      const RunResult& a = runs[r];
      const RunResult& b = it->second[r];
      EXPECT_EQ(a.queries, b.queries) << name << " run " << r;
      EXPECT_EQ(a.final_estimate, b.final_estimate) << name << " run " << r;
      ASSERT_EQ(a.trace.size(), b.trace.size()) << name << " run " << r;
      for (size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].queries, b.trace[i].queries);
        EXPECT_EQ(a.trace[i].estimate, b.trace[i].estimate);
      }
    }
  }
}

// The same determinism contract extended to the metric plane (DESIGN.md
// §4.8): a run's counters and histograms, and the transport's own
// accounting, are a pure function of its seed, not of the dispatcher's
// worker count or scheduling. Each run injects a fresh registry, so nothing
// leaks between runs or onto the process-wide default plane.
struct FlakyRun {
  obs::MetricsSnapshot snapshot;
  TransportMetrics transport;
  bool operator==(const FlakyRun&) const = default;
};

FlakyRun RunFlakyWithRegistry(unsigned dispatcher_workers, uint64_t seed) {
  UsaOptions usa_opts;
  usa_opts.num_pois = 400;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(usa_opts));

  obs::MetricsRegistry registry;
  // The spatial layer is opt-in; wire it too so the comparison covers the
  // kd-tree's per-search counters under concurrent batch probes.
  LbsServer server(usa->dataset.get(),
                   {.max_k = 10, .stats_registry = &registry});

  ShardedTransportOptions topts;
  topts.faults.transient_error_rate = 0.05;
  topts.faults.truncate_rate = 0.03;
  topts.retry.max_attempts = 3;
  topts.seed = seed;
  topts.registry = &registry;
  ShardedTransport transport(&server, topts);

  std::unique_ptr<AsyncDispatcher> dispatcher;
  if (dispatcher_workers > 0) {
    dispatcher = std::make_unique<AsyncDispatcher>(
        &transport, DispatcherOptions{dispatcher_workers, 64});
  }
  LrClient client(&server, {.k = 3, .budget = 300, .registry = &registry},
                  &transport, dispatcher.get());
  engine::NnoProbeResolver resolver(&client,
                                    {.seed = seed, .registry = &registry});
  RunToBudget(&resolver, AggregateSpec::Count(), /*budget=*/300,
              {.registry = &registry});
  return {registry.Snapshot(), transport.ShardMetrics(0)};
}

TEST(SweepDeterminism, MetricSnapshotsIdenticalAcrossWorkerCounts) {
  const FlakyRun one = RunFlakyWithRegistry(1, 42);
  const FlakyRun four = RunFlakyWithRegistry(4, 42);
  const FlakyRun eight = RunFlakyWithRegistry(8, 42);
  // The snapshots are name-sorted, so == is a full bit-identical compare of
  // every counter, gauge and histogram across the worker counts.
  EXPECT_EQ(one, four);
  EXPECT_EQ(four, eight);
}

TEST(SweepDeterminism, MetricSnapshotsIdenticalAcrossRepeatedRuns) {
  EXPECT_EQ(RunFlakyWithRegistry(4, 43), RunFlakyWithRegistry(4, 43));
  // Different seeds must actually change the numbers, or the comparisons
  // above prove nothing.
  EXPECT_NE(RunFlakyWithRegistry(4, 43), RunFlakyWithRegistry(4, 44));
}

// The engine's evidence store adds no nondeterminism of its own: over the
// fault-injecting transport and the worker-pool dispatcher, the full log —
// round boundaries, observation order, and every observation's bit pattern
// — plus the consumer traces and the metric plane are a pure function of
// the seed, not of the dispatcher's worker count.
struct EngineRun {
  uint64_t evidence_hash = 0;
  std::vector<TracePoint> count_trace;
  std::vector<TracePoint> sum_trace;
  obs::MetricsSnapshot snapshot;
  TransportMetrics transport;
};

uint64_t HashEvidence(const engine::EvidenceStore& store) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  auto mix_double = [&](uint64_t h, double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return mix(h, bits);
  };
  uint64_t h = 0;
  for (size_t r = 0; r < store.num_rounds(); ++r) {
    const engine::EvidenceRound& round = store.round(r);
    h = mix(h, round.queries_after);
    h = mix_double(h, round.sample_point.x);
    h = mix_double(h, round.sample_point.y);
    const engine::Observation* obs = store.observations(round);
    for (size_t i = 0; i < round.num_observations; ++i) {
      h = mix(h, static_cast<uint64_t>(obs[i].tuple_id));
      h = mix(h, static_cast<uint64_t>(obs[i].weight_form));
      h = mix_double(h, obs[i].weight);
      h = mix(h, obs[i].cost);
    }
  }
  return h;
}

EngineRun RunEngineFlaky(unsigned dispatcher_workers, uint64_t seed) {
  UsaOptions usa_opts;
  usa_opts.num_pois = 400;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(usa_opts));
  const int rating = usa->columns.rating;

  obs::MetricsRegistry registry;
  LbsServer server(usa->dataset.get(),
                   {.max_k = 10, .stats_registry = &registry});

  ShardedTransportOptions topts;
  topts.faults.transient_error_rate = 0.05;
  topts.faults.truncate_rate = 0.03;
  topts.retry.max_attempts = 3;
  topts.seed = seed;
  topts.registry = &registry;
  ShardedTransport transport(&server, topts);

  std::unique_ptr<AsyncDispatcher> dispatcher;
  if (dispatcher_workers > 0) {
    dispatcher = std::make_unique<AsyncDispatcher>(
        &transport, DispatcherOptions{dispatcher_workers, 64});
  }
  LrClient client(&server, {.k = 3, .budget = 300, .registry = &registry},
                  &transport, dispatcher.get());

  engine::NnoProbeResolver resolver(&client,
                                    {.seed = seed, .registry = &registry});
  engine::EstimationEngine eng(&resolver,
                               engine::EngineOptions{.registry = &registry});
  auto* count = eng.AddAggregate(AggregateSpec::Count());
  auto* sum = eng.AddAggregate(AggregateSpec::Sum(rating, "SUM(rating)"));
  RunEngine(&eng, {.budget = 300});

  EngineRun run;
  run.evidence_hash = HashEvidence(eng.evidence());
  run.count_trace = count->trace();
  run.sum_trace = sum->trace();
  run.snapshot = registry.Snapshot();
  run.transport = transport.ShardMetrics(0);
  return run;
}

void ExpectEngineRunsIdentical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.evidence_hash, b.evidence_hash);
  ASSERT_EQ(a.count_trace.size(), b.count_trace.size());
  for (size_t i = 0; i < a.count_trace.size(); ++i) {
    EXPECT_EQ(a.count_trace[i].queries, b.count_trace[i].queries);
    EXPECT_EQ(a.count_trace[i].estimate, b.count_trace[i].estimate);
  }
  ASSERT_EQ(a.sum_trace.size(), b.sum_trace.size());
  for (size_t i = 0; i < a.sum_trace.size(); ++i) {
    EXPECT_EQ(a.sum_trace[i].queries, b.sum_trace[i].queries);
    EXPECT_EQ(a.sum_trace[i].estimate, b.sum_trace[i].estimate);
  }
  EXPECT_EQ(a.snapshot, b.snapshot);
  EXPECT_EQ(a.transport, b.transport);
}

TEST(SweepDeterminism, EngineEvidenceIdenticalAcrossWorkerCounts) {
  const EngineRun one = RunEngineFlaky(1, 42);
  const EngineRun four = RunEngineFlaky(4, 42);
  const EngineRun eight = RunEngineFlaky(8, 42);
  ExpectEngineRunsIdentical(one, four);
  ExpectEngineRunsIdentical(four, eight);
}

TEST(SweepDeterminism, EngineEvidenceIdenticalAcrossRepeatedSeeds) {
  ExpectEngineRunsIdentical(RunEngineFlaky(4, 43), RunEngineFlaky(4, 43));
  EXPECT_NE(RunEngineFlaky(4, 43).evidence_hash,
            RunEngineFlaky(4, 44).evidence_hash);
}

// ---------------------------------------------------------------------------
// Sharded stack: the scatter-gather wire must be invisible to estimators.
// With clean lanes, the evidence log and the consumer traces are a pure
// function of the seed — invariant to the shard count (1/4/16), to the
// dispatcher worker count (1/8), and identical to the monolithic server
// queried with no simulated wire at all. The full metric snapshot is
// compared only across worker counts: per-lane counters
// (transport.shardNN.*, transport.sharded.fanout) legitimately depend on
// the shard count — that per-lane accounting existing is the point, it
// just must never leak into what the estimator sees.

EngineRun RunEngineSharded(int num_shards, unsigned dispatcher_workers,
                           uint64_t seed) {
  UsaOptions usa_opts;
  usa_opts.num_pois = 400;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(usa_opts));
  const int rating = usa->columns.rating;

  obs::MetricsRegistry registry;
  const ShardedLbsServer sharded(
      usa->dataset.get(),
      {.num_shards = num_shards, .server = ServerOptions{.max_k = 10}});

  ShardedTransportOptions topts;
  topts.rate_limit = {.capacity = 8.0, .refill_per_sec = 50.0};
  topts.seed = seed;
  topts.registry = &registry;
  ShardedTransport transport(&sharded, topts);

  std::unique_ptr<AsyncDispatcher> dispatcher;
  if (dispatcher_workers > 0) {
    dispatcher = std::make_unique<AsyncDispatcher>(
        &transport, DispatcherOptions{dispatcher_workers, 64});
  }
  LrClient client(&sharded, {.k = 3, .budget = 300, .registry = &registry},
                  &transport, dispatcher.get());

  engine::NnoProbeResolver resolver(&client,
                                    {.seed = seed, .registry = &registry});
  engine::EstimationEngine eng(&resolver,
                               engine::EngineOptions{.registry = &registry});
  auto* count = eng.AddAggregate(AggregateSpec::Count());
  auto* sum = eng.AddAggregate(AggregateSpec::Sum(rating, "SUM(rating)"));
  RunEngine(&eng, {.budget = 300});

  EngineRun run;
  run.evidence_hash = HashEvidence(eng.evidence());
  run.count_trace = count->trace();
  run.sum_trace = sum->trace();
  run.snapshot = registry.Snapshot();
  run.transport = transport.Metrics();
  return run;
}

// Evidence + consumer traces only (the estimator-visible surface).
void ExpectEstimatorSurfaceIdentical(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.evidence_hash, b.evidence_hash);
  ASSERT_EQ(a.count_trace.size(), b.count_trace.size());
  for (size_t i = 0; i < a.count_trace.size(); ++i) {
    EXPECT_EQ(a.count_trace[i].queries, b.count_trace[i].queries);
    EXPECT_EQ(a.count_trace[i].estimate, b.count_trace[i].estimate);
  }
  ASSERT_EQ(a.sum_trace.size(), b.sum_trace.size());
  for (size_t i = 0; i < a.sum_trace.size(); ++i) {
    EXPECT_EQ(a.sum_trace[i].queries, b.sum_trace[i].queries);
    EXPECT_EQ(a.sum_trace[i].estimate, b.sum_trace[i].estimate);
  }
}

TEST(SweepDeterminism, ShardedEvidenceInvariantToShardAndWorkerCount) {
  const EngineRun base = RunEngineSharded(1, 1, 42);
  ASSERT_GT(base.count_trace.size(), 0u);
  for (int shards : {1, 4, 16}) {
    const EngineRun one = RunEngineSharded(shards, 1, 42);
    const EngineRun eight = RunEngineSharded(shards, 8, 42);
    // Same shard count, different worker counts: everything matches, the
    // per-lane metric plane included.
    ExpectEngineRunsIdentical(one, eight);
    // Across shard counts the estimator-visible surface is unchanged.
    ExpectEstimatorSurfaceIdentical(base, one);
  }
}

TEST(SweepDeterminism, ShardedEvidenceMatchesMonolithicStack) {
  // The monolith anchor: same seed, no shards and no simulated wire. The
  // client's own DirectTransport charges one attempt per logical query, as
  // the clean lanes do.
  UsaOptions usa_opts;
  usa_opts.num_pois = 400;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(usa_opts));
  const int rating = usa->columns.rating;

  obs::MetricsRegistry registry;
  LbsServer server(usa->dataset.get(), {.max_k = 10});
  LrClient client(&server, {.k = 3, .budget = 300, .registry = &registry});
  engine::NnoProbeResolver resolver(&client, {.seed = 42});
  engine::EstimationEngine eng(&resolver, engine::EngineOptions{});
  auto* count = eng.AddAggregate(AggregateSpec::Count());
  auto* sum = eng.AddAggregate(AggregateSpec::Sum(rating, "SUM(rating)"));
  RunEngine(&eng, {.budget = 300});

  EngineRun mono;
  mono.evidence_hash = HashEvidence(eng.evidence());
  mono.count_trace = count->trace();
  mono.sum_trace = sum->trace();
  ExpectEstimatorSurfaceIdentical(mono, RunEngineSharded(4, 8, 42));
}

// The legacy fingerprint (engine_regression_test.cc) reproduced through the
// full sharded stack: 6000-POI USA scenario, census sampler, three seeds of
// the LR estimator at budget 4000, every trace point folded into one hash.
// Bit-equality here means the scatter, the per-lane policy pipeline, and
// the (d2, id) merge fold changed *nothing* observable end to end.
TEST(SweepDeterminism, LegacyTraceFingerprintThroughShardedStack) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  UsaOptions uopts;
  uopts.num_pois = 6000;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(uopts));
  CensusSampler sampler(&usa->census);
  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa->columns.category, "restaurant"),
      "COUNT(restaurants)");
  for (int shards : {1, 4}) {
    const ShardedLbsServer sharded(
        usa->dataset.get(),
        {.num_shards = shards, .server = ServerOptions{.max_k = 5}});
    ShardedTransport transport(&sharded, {});
    uint64_t hash = 0;
    for (uint64_t seed = 42; seed < 45; ++seed) {
      LrClient client(&sharded, {.k = 5, .budget = 4000}, &transport);
      LrAggOptions opts;
      opts.seed = seed;
      engine::LrCellResolver resolver(&client, &sampler, opts);
      const RunResult r = RunToBudget(&resolver, spec, 4000);
      for (const TracePoint& tp : r.trace) {
        uint64_t bits;
        std::memcpy(&bits, &tp.estimate, sizeof bits);
        hash = mix(hash, tp.queries);
        hash = mix(hash, bits);
      }
    }
    EXPECT_EQ(hash, 0x8e13737b33817270ull) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Service layer: a multi-session host changes *how* queries reach the
// backend (cooperative scheduling, per-backend dispatcher workers,
// cross-session dedup) but must change nothing a session observes. Every
// session's outcome — queries, rounds, full trace, final estimate — and the
// dedup registry's counters are a pure function of the submitted specs, not
// of the dispatcher worker count; repeated runs are bit-identical.

struct ServiceRun {
  std::vector<service::SessionStatus> sessions;  // in submit order
  service::DedupStats dedup;
};

ServiceRun RunServiceMix(unsigned dispatcher_workers, uint64_t seed_base) {
  UsaOptions usa_opts;
  usa_opts.num_pois = 400;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(usa_opts));
  static const LbsServer* server =
      new LbsServer(usa->dataset.get(), {.max_k = 10});

  service::ServiceOptions options;
  options.dispatcher_workers = dispatcher_workers;
  options.admission.max_active = 4;
  options.slice_rounds = 2;
  service::EstimationService svc({{.meta = server}}, options);

  // A mixed workload: one LR, one NNO, a twin of the NNO session (same seed
  // → same query stream, the dedup best case), one NNO at another seed.
  std::vector<service::SessionSpec> specs(4);
  specs[0].family = service::EstimatorFamily::kLr;
  specs[0].seed = seed_base;
  specs[1].family = service::EstimatorFamily::kNno;
  specs[1].seed = seed_base;
  specs[2] = specs[1];
  specs[3].family = service::EstimatorFamily::kNno;
  specs[3].seed = seed_base + 1;
  for (service::SessionSpec& spec : specs) {
    spec.k = 3;
    spec.budget = 250;
  }

  std::vector<service::SessionId> ids;
  for (const service::SessionSpec& spec : specs) ids.push_back(svc.Submit(spec));
  svc.RunUntilIdle();

  ServiceRun run;
  for (service::SessionId id : ids) run.sessions.push_back(svc.Poll(id));
  run.dedup = svc.dedup()->Stats();
  return run;
}

void ExpectServiceRunsIdentical(const ServiceRun& a, const ServiceRun& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    const service::SessionStatus& x = a.sessions[s];
    const service::SessionStatus& y = b.sessions[s];
    EXPECT_EQ(x.state, y.state) << "session " << s;
    EXPECT_EQ(x.queries_used, y.queries_used) << "session " << s;
    EXPECT_EQ(x.rounds, y.rounds) << "session " << s;
    EXPECT_EQ(x.dedup_hits, y.dedup_hits) << "session " << s;
    ASSERT_EQ(x.results.size(), y.results.size()) << "session " << s;
    for (size_t r = 0; r < x.results.size(); ++r) {
      EXPECT_EQ(x.results[r].queries, y.results[r].queries);
      EXPECT_EQ(x.results[r].final_estimate, y.results[r].final_estimate);
      ASSERT_EQ(x.results[r].trace.size(), y.results[r].trace.size());
      for (size_t i = 0; i < x.results[r].trace.size(); ++i) {
        EXPECT_EQ(x.results[r].trace[i].queries, y.results[r].trace[i].queries);
        EXPECT_EQ(x.results[r].trace[i].estimate,
                  y.results[r].trace[i].estimate);
      }
    }
  }
  EXPECT_EQ(a.dedup.lookups, b.dedup.lookups);
  EXPECT_EQ(a.dedup.hits, b.dedup.hits);
  EXPECT_EQ(a.dedup.entries, b.dedup.entries);
}

TEST(ServiceDeterminism, SessionOutcomesInvariantToDispatcherWorkers) {
  const ServiceRun inline_batches = RunServiceMix(0, 42);
  ASSERT_GT(inline_batches.sessions.size(), 0u);
  // The twin session guarantees the dedup path is actually exercised.
  EXPECT_GT(inline_batches.dedup.hits, 0u);
  for (unsigned workers : {1u, 4u, 8u}) {
    ExpectServiceRunsIdentical(inline_batches, RunServiceMix(workers, 42));
  }
}

TEST(ServiceDeterminism, ServiceRunsIdenticalAcrossRepeatedSeeds) {
  ExpectServiceRunsIdentical(RunServiceMix(4, 43), RunServiceMix(4, 43));
  // Different seeds must actually move the numbers, or the comparisons
  // above prove nothing.
  EXPECT_NE(RunServiceMix(4, 43).sessions[0].results[0].final_estimate,
            RunServiceMix(4, 44).sessions[0].results[0].final_estimate);
}

// The legacy fingerprint through the service path: the same three LR
// sessions the monolith harness ran back to back, here submitted
// *concurrently* — time-sliced against each other, behind the dedup wire,
// with dispatcher workers fulfilling the plans — and still folding to the
// monolith-era hash. Mirror charging is what makes this possible: a dedup
// hit bills the session exactly what a clean solo wire would have.
TEST(ServiceDeterminism, LegacyTraceFingerprintThroughService) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  };
  UsaOptions uopts;
  uopts.num_pois = 6000;
  static const UsaScenario* usa = new UsaScenario(BuildUsaScenario(uopts));
  static const LbsServer* server =
      new LbsServer(usa->dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa->census);
  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa->columns.category, "restaurant"),
      "COUNT(restaurants)");

  for (unsigned workers : {0u, 4u}) {
    service::ServiceOptions options;
    options.dispatcher_workers = workers;
    options.admission.max_active = 3;
    service::EstimationService svc({{.meta = server}}, options);

    std::vector<service::SessionId> ids;
    for (uint64_t seed = 42; seed < 45; ++seed) {
      service::SessionSpec session;
      session.family = service::EstimatorFamily::kLr;
      session.aggregates = {spec};
      session.k = 5;
      session.budget = 4000;
      session.seed = seed;
      session.sampler = &sampler;
      ids.push_back(svc.Submit(session));
    }
    svc.RunUntilIdle();

    uint64_t hash = 0;
    for (service::SessionId id : ids) {
      const service::SessionStatus done = svc.Poll(id);
      ASSERT_EQ(done.state, service::SessionState::kCompleted);
      ASSERT_EQ(done.results.size(), 1u);
      for (const TracePoint& tp : done.results[0].trace) {
        uint64_t bits;
        std::memcpy(&bits, &tp.estimate, sizeof bits);
        hash = mix(hash, tp.queries);
        hash = mix(hash, bits);
      }
    }
    EXPECT_EQ(hash, 0x8e13737b33817270ull) << workers << " workers";
  }
}

}  // namespace
}  // namespace bench
}  // namespace lbsagg
