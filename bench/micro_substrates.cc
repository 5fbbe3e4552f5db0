// Micro-benchmarks of the substrates (google-benchmark). These are not
// paper figures — they document that the simulated LBS answers queries in
// microseconds, so the benchmark harness measures the estimators' *query
// complexity*, never the substrate's wall clock.

#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_main.h"

#include "core/ground_truth.h"
#include "core/sampler.h"
#include "geometry/topk_region.h"
#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "spatial/kdtree.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {1000, 1000});

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

void BM_KdTreeBuild(benchmark::State& state) {
  const auto pts = RandomPoints(static_cast<int>(state.range(0)), 1);
  for (auto _ : state) {
    KdTree tree(pts);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

// n China users with every 7th moved onto an earlier one's position, so the
// jitter runs both its miss path and its move path.
Dataset ChinaWithTwins(int n) {
  const Box china({0.0, 0.0}, {5000.0, 3500.0});
  Rng rng(88);
  const std::vector<ClusterSpec> cities =
      MakeZipfClusters(50, china, 1.1, 40.0, rng);
  std::vector<Vec2> pos = GenerateClustered(n, china, cities, 0.08, rng);
  for (size_t i = 7; i < pos.size(); i += 7) pos[i] = pos[rng.UniformInt(i)];
  Dataset d(china, Schema());
  for (const Vec2& p : pos) d.Add(p, {});
  return d;
}

void BM_JitterDuplicates(benchmark::State& state) {
  const Dataset input = ChinaWithTwins(static_cast<int>(state.range(0)));
  int moved = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Dataset d = input;
    Rng rng(31);
    state.ResumeTiming();
    moved = d.JitterDuplicates(rng, 1e-7);
    benchmark::DoNotOptimize(moved);
  }
  state.counters["moved"] = moved;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JitterDuplicates)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_KdTreeKnnQuery(benchmark::State& state) {
  const auto pts = RandomPoints(100000, 2);
  const KdTree tree(pts);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Nearest(kBox.SamplePoint(rng),
                                          static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KdTreeKnnQuery)->Arg(1)->Arg(10)->Arg(50);

void BM_LbsServerQuery(benchmark::State& state) {
  UsaOptions opts;
  opts.num_pois = 50000;
  const UsaScenario usa = BuildUsaScenario(opts);
  const LbsServer server(usa.dataset.get(), {.max_k = 10});
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.Query(usa.dataset->box().SamplePoint(rng), 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LbsServerQuery);

void BM_TopkRegion(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto pts = RandomPoints(64, 7);
  const Vec2 focal = pts[0];
  const std::vector<Vec2> others(pts.begin() + 1, pts.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTopkRegion(focal, others, kBox, k).area);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopkRegion)->Arg(1)->Arg(3)->Arg(5);

void BM_GroundTruthCell(benchmark::State& state) {
  const auto pts = RandomPoints(20000, 8);
  const GroundTruthOracle oracle(pts, kBox);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.TopkCellArea(static_cast<int>(rng.UniformInt(20000)), 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroundTruthCell);

void BM_CensusRegionProbability(benchmark::State& state) {
  UsaOptions opts;
  opts.num_pois = 5000;
  const UsaScenario usa = BuildUsaScenario(opts);
  const CensusSampler sampler(&usa.census);
  const GroundTruthOracle oracle(usa.dataset->Positions(), usa.dataset->box());
  const TopkRegion cell = oracle.TopkCell(123, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.RegionProbability(cell));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CensusRegionProbability);

}  // namespace
}  // namespace lbsagg

LBSAGG_BENCHMARK_MAIN();
