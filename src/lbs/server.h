#ifndef LBSAGG_LBS_SERVER_H_
#define LBSAGG_LBS_SERVER_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbs/dataset.h"
#include "spatial/backend.h"
#include "spatial/spatial_index.h"

namespace lbsagg {

// How the server ranks candidate tuples (§5.3).
enum class RankingMode {
  // Ascending Euclidean distance — the model used by most of the paper.
  kDistance,
  // "Prominence": score = distance − prominence_weight · static_score, so a
  // popular tuple can outrank a closer one (Google Places' default mode).
  kProminence,
};

// Spatial index backend of the simulated service — invisible through the
// interface (both backends return bit-identical results): the k-d tree
// searches, brute force is its test oracle (see spatial/backend.h).
using IndexBackend = SpatialBackend;

// Server-side configuration mirroring the real-world interface constraints
// catalogued in §2.1 and §5.3.
struct ServerOptions {
  // Interface top-k restriction: the largest k a client may request.
  int max_k = 10;

  // Maximum coverage radius d_max; tuples farther than this from the query
  // location are never returned (Google Maps: 50 km, Weibo: 11 km).
  double max_radius = std::numeric_limits<double>::infinity();

  RankingMode ranking = RankingMode::kDistance;

  // Name of the double column holding the static score for kProminence.
  std::string prominence_column = {};
  double prominence_weight = 0.0;

  // Location obfuscation (WeChat-style, §6.3 "Localization Accuracy"): each
  // tuple's position is replaced, deterministically per tuple, by a point
  // uniform in a disc of this radius around the true position. Ranking and
  // returned locations use the obfuscated positions.
  double obfuscation_radius = 0.0;
  uint64_t obfuscation_seed = 0x0bf5ca7ed;

  IndexBackend index_backend = IndexBackend::kKdTree;

  // When set, the spatial index publishes its per-search work counters
  // (spatial.kdtree.*) to this registry. Opt-in —
  // unlike the client and
  // estimator layers there is no null-means-default fallback, because the
  // index search is the hottest loop in the system and only runs that emit
  // run reports should pay the per-search counter flush. Pass
  // &obs::MetricsRegistry::Default() to land on the process-wide plane.
  obs::MetricsRegistry* stats_registry = nullptr;
};

// One ranked hit; `distance` is measured to the tuple's effective
// (possibly obfuscated) position.
struct ServerHit {
  int tuple_id = -1;
  double distance = 0.0;
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

// The LBS backend: full access to the dataset, partitioned across N >= 1
// shards, each owning a disjoint slice of the tuples behind its own
// SpatialIndex. Client classes (lbs/client.h) wrap it with the restricted
// public interfaces that the estimation algorithms are allowed to use.
//
// A server built from ServerOptions alone has one shard holding every
// tuple; ShardedLbsServer (lbs/sharded_server.h) builds N. The shard count
// is invisible through the interface, exactly like the index backend: a
// query scatters to the ReachableShards, each answers its QueryShard page,
// and MergeShardPages gathers them through the (d2, id) fold, so every
// answer is bit-identical to the one-shard server's (DESIGN.md §4.11).
//
// Thread-safety: construction is internally parallel; afterwards the object
// is immutable and every method is const and safe to call concurrently.
class LbsServer {
 public:
  // `dataset` must outlive the server.
  LbsServer(const Dataset* dataset, ServerOptions options = {});

  // Answers a kNN query at `q` for min(k, max_k) tuples, honoring
  // max_radius and the optional pass-through selection condition. One
  // shard answers with its own page; N shards run the scatter-gather.
  std::vector<ServerHit> Query(const Vec2& q, int k,
                               const TupleFilter& filter = nullptr) const;

  // The per-shard endpoint the sharded transport fans out to, and the only
  // ranking code: this shard's top-k page (global tuple ids, clamped to
  // max_k, radius-trimmed; under kProminence, scored and re-ranked by
  // (score, global id)). Merging every reachable shard's page with
  // MergeShardPages reproduces the one-shard answer exactly.
  std::vector<ServerHit> QueryShard(int shard, const Vec2& q, int k,
                                    const TupleFilter& filter = nullptr) const;

  // Gathers per-shard pages into the final top-k: the (d2, id) fold under
  // kDistance, the (score, id) fold under kProminence. Pure and
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
  // Global tuple ids owned by `shard`, ascending.
  const std::vector<int>& shard_ids(int shard) const;

  const Dataset& dataset() const { return *dataset_; }
  const ServerOptions& options() const { return options_; }
  const ShardBuildStats& build_stats() const { return build_stats_; }

  // Effective (obfuscated) position of a tuple; equals the true position
  // when obfuscation_radius == 0.
  const Vec2& EffectivePosition(int id) const;

 protected:
  // `num_shards` spatial shards whose indexes build on up to
  // `build_threads` worker threads (0 = hardware concurrency).
  LbsServer(const Dataset* dataset, ServerOptions options, int num_shards,
            unsigned build_threads);

 private:
  struct Shard {
    std::vector<int> ids;  // ascending global ids
    std::unique_ptr<SpatialIndex> index;
    Box bbox;  // of the shard's effective positions; valid iff !ids.empty()
  };

  const Dataset* dataset_;
  ServerOptions options_;
  std::vector<Vec2> effective_pos_;  // global, id order
  std::vector<double> prominence_;   // empty unless kProminence
  std::vector<Shard> shards_;
  ShardBuildStats build_stats_;
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_SERVER_H_
