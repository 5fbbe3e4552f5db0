#ifndef LBSAGG_SPATIAL_BACKEND_H_
#define LBSAGG_SPATIAL_BACKEND_H_

#include <memory>
#include <vector>

#include "spatial/spatial_index.h"

namespace lbsagg {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// The SpatialIndex implementations a server can build. Both return
// bit-identical results through the SpatialIndex interface
// (spatial_equivalence_test.cc), so the choice never changes an answer
// (DESIGN.md §4.10):
//   kKdTree     — flat preorder k-d tree; every server that searches.
//   kBruteForce — O(n) scan with O(n) construction; the test oracle.
enum class SpatialBackend {
  kKdTree,
  kBruteForce,
};

// Builds the chosen index over `points`. When `stats_registry` is non-null
// the k-d tree publishes its per-search work counters to it.
std::unique_ptr<SpatialIndex> MakeSpatialIndex(
    SpatialBackend backend, std::vector<Vec2> points,
    obs::MetricsRegistry* stats_registry = nullptr);

// Parallel multi-index build: one index per entry of `shard_points`, shard
// builds distributed over up to `threads` worker threads (0 = the hardware
// concurrency). Each index is a pure function of its own point array, so
// the result is identical for any thread count; only the wall time changes.
// When `build_ms` is non-null it receives one per-shard build duration per
// entry (the max entry is the build's critical path — what an N-core
// machine pays for the whole fleet). Empty point arrays yield null index
// slots rather than empty indexes. Each point array moves into its index.
// Used by LbsServer (lbs/server.h) and benchmarked in
// bench/fig18_sharded.cc.
std::vector<std::unique_ptr<SpatialIndex>> MakeSpatialIndexes(
    SpatialBackend backend, std::vector<std::vector<Vec2>> shard_points,
    unsigned threads = 0, obs::MetricsRegistry* stats_registry = nullptr,
    std::vector<double>* build_ms = nullptr);

}  // namespace lbsagg

#endif  // LBSAGG_SPATIAL_BACKEND_H_
