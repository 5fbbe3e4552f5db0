// Hot-path micro-benchmarks: the three substrate layers every estimator
// query exercises — kd-tree kNN search, top-k region refinement, and the
// end-to-end LR cell computation. These are the numbers tracked in
// BENCH_hotpath.json (regenerate with
//   ./build/bench/micro_hotpath --benchmark_format=json > BENCH_hotpath.json
// on a quiet machine; see DESIGN.md "Hot path & complexity").

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_main.h"
#include "core/history.h"
#include "core/lr_cell.h"
#include "core/sampler.h"
#include "geometry/topk_region.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "spatial/kdtree.h"
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

// ---------------------------------------------------------------------------
// Layer 1: kd-tree kNN. Same workload shapes as micro_substrates so the
// before/after numbers in BENCH_hotpath.json line up with the seed run.

void BM_KnnQuery(benchmark::State& state) {
  const auto pts = RandomPoints(100000, 2);
  const KdTree tree(pts);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Nearest(kBox.SamplePoint(rng),
                                          static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnnQuery)->Arg(1)->Arg(10)->Arg(50);

void BM_KnnQueryFiltered(benchmark::State& state) {
  const auto pts = RandomPoints(100000, 2);
  const KdTree tree(pts);
  Rng rng(3);
  const IndexFilter filter = [](int id) { return (id & 3) != 0; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.NearestFiltered(
        kBox.SamplePoint(rng), static_cast<int>(state.range(0)), filter));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KnnQueryFiltered)->Arg(10);

// ---------------------------------------------------------------------------
// Layer 2: top-k region refinement. The batch benchmark measures one
// from-scratch ComputeTopkRegion over n constraint points; the scratch
// benchmark measures a full refinement schedule — points arriving in
// batches across rounds — recomputing the region each round, as
// LrCellComputer does.

void BM_TopkRegionBatch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto pts = RandomPoints(64, 7);
  const Vec2 focal = pts[0];
  const std::vector<Vec2> others(pts.begin() + 1, pts.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTopkRegion(focal, others, kBox, k).area);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopkRegionBatch)->Arg(1)->Arg(3)->Arg(5);

constexpr int kRounds = 8;
constexpr int kPointsPerRound = 8;

void BM_RefineScratch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto pts = RandomPoints(kRounds * kPointsPerRound + 1, 7);
  const Vec2 focal = pts[0];
  const ConvexPolygon domain = ConvexPolygon::FromBox(kBox);
  for (auto _ : state) {
    double area = 0.0;
    std::vector<Vec2> known;
    for (int r = 0; r < kRounds; ++r) {
      known.insert(known.end(), pts.begin() + 1 + r * kPointsPerRound,
                   pts.begin() + 1 + (r + 1) * kPointsPerRound);
      area = ComputeTopkRegion(focal, known, domain, k).area;
    }
    benchmark::DoNotOptimize(area);
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_RefineScratch)->Arg(1)->Arg(3)->Arg(5);

// ---------------------------------------------------------------------------
// Layer 3: end-to-end LR rounds — the exact Theorem-1 cell computation an
// LR-LBS-AGG sample performs, including every interface query against the
// simulated server. One iteration = one full cell (several refinement
// rounds).

struct LrFixture {
  UsaScenario usa;
  LbsServer server;
  UniformSampler sampler;

  explicit LrFixture(uint64_t seed)
      : usa(BuildUsaScenario({.num_pois = 5000, .seed = seed})),
        server(usa.dataset.get(), {.max_k = 10}),
        sampler(usa.dataset->box()) {}
};

void BM_LrExactCell(benchmark::State& state) {
  static const LrFixture* fixture = new LrFixture(11);
  const auto& positions = fixture->usa.dataset->Positions();
  LrClient client(&fixture->server, {.k = 5});
  History history;
  LrCellComputer computer(&client, &history, &fixture->sampler);
  int id = 0;
  for (auto _ : state) {
    id = (id + 1) % 256;
    benchmark::DoNotOptimize(
        computer.ComputeExactCell(id, positions[id], 2).area);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["queries"] = static_cast<double>(client.queries_used());
}
BENCHMARK(BM_LrExactCell);

// The history searches of an LR round: a 3,500-entry history, about the
// largest an lr_adaptive session reaches, recorded in LR page order (the
// k = 5 pages of census-sampled points over 20k USA POIs, as the server
// returns them). One iteration = one NearestOtherPositions call at a
// recorded tuple, excluding itself: limit 2 is the disc certificate, 32 the
// cell seed, 64 the λ_h bound seed.
void BM_HistoryNearest(benchmark::State& state) {
  static const History* history = [] {
    const UsaScenario usa = BuildUsaScenario({.num_pois = 20000, .seed = 11});
    LbsServer server(usa.dataset.get(), {.max_k = 5});
    LrClient client(&server, {.k = 5});
    const CensusSampler sampler(&usa.census);
    Rng rng(5);
    auto* h = new History;
    while (h->size() < 3500) {
      for (const LrClient::Item& item : client.Query(sampler.Sample(rng))) {
        h->Record(item.id, item.location);
      }
    }
    return h;
  }();
  const std::vector<std::pair<int, Vec2>> entries = history->Entries();
  const size_t limit = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const auto& [id, pos] = entries[i];
    i = (i + 1) % entries.size();
    benchmark::DoNotOptimize(history->NearestOtherPositions(pos, id, limit));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryNearest)->Arg(2)->Arg(32)->Arg(64);

// ---------------------------------------------------------------------------
// Scale: k-d tree build cost and k=10 query cost at 10^5..10^7 points.

const std::vector<Vec2>& PointsOfSize(int64_t n) {
  static auto* cache = new std::map<int64_t, std::vector<Vec2>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    it = cache->emplace(n, RandomPoints(static_cast<int>(n), 2)).first;
  }
  return it->second;
}

const KdTree& KdOfSize(int64_t n) {
  static auto* cache = new std::map<int64_t, KdTree>();
  auto it = cache->find(n);
  if (it == cache->end()) it = cache->emplace(n, PointsOfSize(n)).first;
  return it->second;
}

std::vector<Vec2> QueryBatch(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> qs;
  qs.reserve(count);
  for (int i = 0; i < count; ++i) qs.push_back(kBox.SamplePoint(rng));
  return qs;
}

void BM_BuildKdTree(benchmark::State& state) {
  const auto& pts = PointsOfSize(state.range(0));
  for (auto _ : state) {
    const KdTree tree(pts);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildKdTree)
    ->Arg(100000)->Arg(1000000)->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

void BM_Knn10KdTree(benchmark::State& state) {
  const KdTree& tree = KdOfSize(state.range(0));
  const auto queries = QueryBatch(1024, 99);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Nearest(queries[i++ & 1023], 10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Knn10KdTree)->Arg(100000)->Arg(1000000)->Arg(10000000);

void BM_LbsServerQuery(benchmark::State& state) {
  static const LrFixture* fixture = new LrFixture(11);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture->server.Query(fixture->usa.dataset->box().SamplePoint(rng),
                              10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LbsServerQuery);

}  // namespace
}  // namespace lbsagg

LBSAGG_BENCHMARK_MAIN();
