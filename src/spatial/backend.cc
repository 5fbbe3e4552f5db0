#include "spatial/backend.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "spatial/brute_force.h"
#include "spatial/kdtree.h"

namespace lbsagg {

std::unique_ptr<SpatialIndex> MakeSpatialIndex(
    SpatialBackend backend, const std::vector<Vec2>& points,
    obs::MetricsRegistry* stats_registry) {
  switch (backend) {
    case SpatialBackend::kKdTree: {
      auto tree = std::make_unique<KdTree>(points);
      if (stats_registry != nullptr) tree->EnableStats(stats_registry);
      return tree;
    }
    case SpatialBackend::kBruteForce:
      return std::make_unique<BruteForceIndex>(points);
  }
  return nullptr;
}

std::vector<std::unique_ptr<SpatialIndex>> MakeSpatialIndexes(
    SpatialBackend backend, const std::vector<std::vector<Vec2>>& shard_points,
    unsigned threads, obs::MetricsRegistry* stats_registry,
    std::vector<double>* build_ms) {
  const size_t shards = shard_points.size();
  std::vector<std::unique_ptr<SpatialIndex>> indexes(shards);
  if (build_ms != nullptr) build_ms->assign(shards, 0.0);
  if (shards == 0) return indexes;

  if (threads == 0) threads = std::thread::hardware_concurrency();
  threads = std::max<unsigned>(
      1, static_cast<unsigned>(std::min<size_t>(threads, shards)));

  // Work-stealing over an atomic shard counter: a thread that lands a big
  // shard stops claiming, so the schedule adapts to skewed partitions.
  std::atomic<size_t> next{0};
  auto build_range = [&] {
    for (size_t shard = next.fetch_add(1); shard < shards;
         shard = next.fetch_add(1)) {
      if (shard_points[shard].empty()) continue;  // null index for the slot
      const auto start = std::chrono::steady_clock::now();
      indexes[shard] =
          MakeSpatialIndex(backend, shard_points[shard], stats_registry);
      if (build_ms != nullptr) {
        (*build_ms)[shard] =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
      }
    }
  };

  if (threads == 1) {
    build_range();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(build_range);
    for (std::thread& t : pool) t.join();
  }
  return indexes;
}

}  // namespace lbsagg
