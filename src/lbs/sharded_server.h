#ifndef LBSAGG_LBS_SHARDED_SERVER_H_
#define LBSAGG_LBS_SHARDED_SERVER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "lbs/server.h"

namespace lbsagg {

// How tuples are assigned to shards. Both partitioners are pure functions
// of (dataset, options), so a sharded deployment is reproducible from its
// configuration alone.
enum class ShardPartition {
  // Morton-order range partition: tuples sorted by the Z-curve key of their
  // effective position, cut into num_shards near-equal contiguous runs.
  // Shards are spatially coherent, which is what makes coverage-radius
  // shard pruning (ReachableShards) effective.
  kSpatial,
  // Seeded hash of the tuple id: shards are unbiased samples of the whole
  // region (every shard's bounding box ≈ the full box, so no pruning).
  kHash,
};

struct ShardedServerOptions {
  int num_shards = 4;
  ShardPartition partition = ShardPartition::kSpatial;

  // Salt for kHash assignment (kSpatial is deterministic without it).
  uint64_t partition_seed = 0x51a2d;

  // Worker threads for the parallel per-shard index build;
  // 0 = hardware concurrency.
  unsigned build_threads = 0;

  // Interface constraints every shard enforces (max_k, max_radius, ranking,
  // obfuscation, index backend) — identical to the monolithic server's.
  ServerOptions server = {};
};

// Construction cost breakdown, for bench/fig18_sharded.cc. The serial
// partition prefix plus the *longest* shard build is the critical path: the
// wall time an N-core machine pays when every shard builds concurrently.
struct ShardBuildStats {
  double wall_ms = 0.0;       // partition + build, end to end, on this host
  double partition_ms = 0.0;  // serial prefix (partition + point scatter)
  std::vector<double> shard_build_ms;

  double critical_path_ms() const {
    double worst = 0.0;
    for (double ms : shard_build_ms) worst = std::max(worst, ms);
    return partition_ms + worst;
  }
};

// A horizontally partitioned LbsServer: N shards, each owning a disjoint
// slice of the dataset behind its own SpatialIndex (built in parallel at
// construction). A query scatters to the ReachableShards, each answers its
// QueryShard page, and MergeShardPages gathers them through the (d2, id)
// fold — ShardedTransport::Fulfill runs exactly this — so every answer is
// bit-identical to the monolithic LbsServer over the same dataset and
// options: the shard count is invisible through the interface, exactly like
// the index backend (sharded_server_test.cc asserts this for every mode).
//
// Thread-safety: construction is internally parallel; afterwards the object
// is immutable and every method is const and safe to call concurrently.
class ShardedLbsServer {
 public:
  // `dataset` must outlive the server.
  ShardedLbsServer(const Dataset* dataset, ShardedServerOptions options = {});

  // The per-shard endpoint the sharded transport fans out to: this shard's
  // top-k page (global tuple ids, clamped to max_k, radius-trimmed; under
  // kProminence, scored and re-ranked shard-locally). Merging every
  // reachable shard's page with MergeShardPages reproduces
  // LbsServer::Query exactly.
  std::vector<ServerHit> QueryShard(int shard, const Vec2& q, int k,
                                    const TupleFilter& filter = nullptr) const;

  // Gathers per-shard pages into the final top-k: the (d2, id) fold under
  // kDistance, the (score, id) re-rank under kProminence. Pure and
  // deterministic — page order and page-internal order are irrelevant.
  std::vector<ServerHit> MergeShardPages(
      const Vec2& q, const std::vector<std::vector<ServerHit>>& pages,
      int k) const;

  // Shards that could contribute to any query at `q` under the coverage
  // radius: mind2(q, shard bbox) <= max_radius^2, ascending shard id, empty
  // shards skipped. With an infinite max_radius this is every non-empty
  // shard. Pure geometry — the sharded transport uses it to decide the
  // scatter fan-out before any backend work runs.
  std::vector<int> ReachableShards(const Vec2& q) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(int tuple_id) const;
  // Global tuple ids owned by `shard`, ascending.
  const std::vector<int>& shard_ids(int shard) const;

  const Dataset& dataset() const { return *dataset_; }
  const ShardedServerOptions& options() const { return options_; }
  const ShardBuildStats& build_stats() const { return build_stats_; }

  // Effective (obfuscated) position of a tuple; identical to the monolithic
  // LbsServer's for the same ServerOptions.
  const Vec2& EffectivePosition(int id) const;

 private:
  struct Shard {
    std::vector<int> ids;  // ascending global ids
    std::unique_ptr<SpatialIndex> index;
    Box bbox;  // of the shard's effective positions; valid iff !ids.empty()
  };

  // Squared distance from q to shard's bbox (0 inside); +inf when empty.
  double ShardMinDist2(const Shard& shard, const Vec2& q) const;

  const Dataset* dataset_;
  ShardedServerOptions options_;
  std::vector<Vec2> effective_pos_;  // global, id order
  std::vector<double> prominence_;   // empty unless kProminence
  std::vector<int> shard_of_;        // tuple id -> shard
  std::vector<Shard> shards_;
  ShardBuildStats build_stats_;
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_SHARDED_SERVER_H_
