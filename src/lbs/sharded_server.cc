#include "lbs/sharded_server.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "geometry/loc_key.h"
#include "spatial/backend.h"
#include "util/check.h"

namespace lbsagg {

namespace {

// 16-bit Z-curve interleave for the spatial partitioner. Partition-grade
// resolution only — shard membership just needs spatial coherence.
uint32_t SpreadBits16(uint32_t v) {
  v &= 0xffffu;
  v = (v | (v << 8)) & 0x00ff00ffu;
  v = (v | (v << 4)) & 0x0f0f0f0fu;
  v = (v | (v << 2)) & 0x33333333u;
  v = (v | (v << 1)) & 0x55555555u;
  return v;
}

uint32_t Quantize16(double v, double lo, double span) {
  if (!(span > 0.0)) return 0;
  const double t = std::clamp((v - lo) / span, 0.0, 1.0);
  return static_cast<uint32_t>(t * 65535.0 + 0.5);
}

uint32_t MortonKey(const Vec2& p, const Box& box) {
  return SpreadBits16(Quantize16(p.x, box.lo.x, box.width())) |
         (SpreadBits16(Quantize16(p.y, box.lo.y, box.height())) << 1);
}

// One merge-fold candidate. `d2` is the exact squared distance
// dx*dx + dy*dy — the builds use no FP-contraction flags, so the value is
// the same IEEE double in every translation unit, and ordering by it
// reproduces the SpatialIndex (squared distance, index) contract exactly.
// Sorting by `distance` instead would be wrong: two distinct d2 can round
// to the same sqrt, and the id tie-break would then disagree with the
// index's d2 order.
struct ShardCandidate {
  double d2 = 0.0;
  double distance = 0.0;  // sqrt(d2), what the ServerHit carries
  int id = -1;            // global tuple id
};

// Top-k under the total order (d2, id): input order is irrelevant, so any
// permutation (shard arrival order, worker interleaving) folds the same.
void SortTruncate(std::vector<ShardCandidate>* candidates, int k) {
  std::sort(candidates->begin(), candidates->end(),
            [](const ShardCandidate& a, const ShardCandidate& b) {
              return a.d2 < b.d2 || (a.d2 == b.d2 && a.id < b.id);
            });
  if (candidates->size() > static_cast<size_t>(k)) candidates->resize(k);
}

std::vector<ServerHit> ToHits(const std::vector<ShardCandidate>& candidates) {
  std::vector<ServerHit> hits;
  hits.reserve(candidates.size());
  for (const ShardCandidate& c : candidates)
    hits.push_back({c.id, c.distance});
  return hits;
}

double SquaredDistanceTo(const Vec2& q, const Vec2& p) {
  const double dx = p.x - q.x;
  const double dy = p.y - q.y;
  return dx * dx + dy * dy;
}

}  // namespace

ShardedLbsServer::ShardedLbsServer(const Dataset* dataset,
                                   ShardedServerOptions options)
    : dataset_(dataset), options_(std::move(options)) {
  LBSAGG_CHECK(dataset_ != nullptr);
  LBSAGG_CHECK_GE(options_.num_shards, 1);
  LBSAGG_CHECK_GE(options_.server.max_k, 1);

  const auto t0 = std::chrono::steady_clock::now();
  effective_pos_ = ComputeEffectivePositions(*dataset_, options_.server);
  const int n = static_cast<int>(dataset_->size());
  const int num_shards = options_.num_shards;
  shard_of_.assign(n, 0);
  shards_.resize(num_shards);

  if (num_shards == 1) {
    shards_[0].ids.resize(n);
    std::iota(shards_[0].ids.begin(), shards_[0].ids.end(), 0);
  } else if (options_.partition == ShardPartition::kHash) {
    for (int id = 0; id < n; ++id) {
      shard_of_[id] = static_cast<int>(
          SplitMix64(options_.partition_seed ^
                     (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(id) + 1))) %
          static_cast<uint64_t>(num_shards));
    }
    // Iterating ids in order keeps each shard's id list ascending.
    for (int id = 0; id < n; ++id) shards_[shard_of_[id]].ids.push_back(id);
  } else {
    // Z-order range partition by sampled splitters: each shard owns one
    // contiguous Morton-key range, chosen from the key quantiles of a
    // deterministic stride sample. O(n) assignment instead of an O(n log n)
    // full sort — the partition is off the build's critical path even at
    // 10^8 tuples (bench/fig18_sharded.cc) — at the cost of shard sizes
    // being only approximately equal (splitter-grade, not exact cuts).
    std::vector<uint32_t> key(n);
    for (int id = 0; id < n; ++id) {
      key[id] = MortonKey(effective_pos_[id], dataset_->box());
    }
    const int stride = std::max(1, n / 65536);
    std::vector<uint32_t> sample;
    sample.reserve(static_cast<size_t>(n / stride) + 1);
    for (int id = 0; id < n; id += stride) sample.push_back(key[id]);
    std::sort(sample.begin(), sample.end());
    std::vector<uint32_t> splitters;  // shard s owns keys < splitters[s]
    splitters.reserve(num_shards - 1);
    for (int s = 1; s < num_shards; ++s) {
      splitters.push_back(sample[sample.size() * s / num_shards]);
    }
    for (int id = 0; id < n; ++id) {
      shard_of_[id] = static_cast<int>(
          std::upper_bound(splitters.begin(), splitters.end(), key[id]) -
          splitters.begin());
    }
    // Ascending global ids per shard, so the shard index's local-position
    // tie-break equals the global (d2, id) tie order.
    for (int id = 0; id < n; ++id) shards_[shard_of_[id]].ids.push_back(id);
  }

  std::vector<std::vector<Vec2>> shard_points(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    auto& points = shard_points[s];
    points.reserve(shards_[s].ids.size());
    for (int id : shards_[s].ids) points.push_back(effective_pos_[id]);
    if (!points.empty()) {
      Box bbox(points[0], points[0]);
      for (const Vec2& p : points) bbox = bbox.Including(p);
      shards_[s].bbox = bbox;
    }
  }
  build_stats_.partition_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  auto indexes = MakeSpatialIndexes(
      options_.server.index_backend, shard_points, options_.build_threads,
      options_.server.stats_registry, &build_stats_.shard_build_ms);
  for (int s = 0; s < num_shards; ++s) {
    shards_[s].index = std::move(indexes[s]);
  }
  build_stats_.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  if (options_.server.ranking == RankingMode::kProminence) {
    LBSAGG_CHECK(std::isfinite(options_.server.max_radius))
        << "prominence ranking requires a finite max_radius";
    const int col =
        dataset_->schema().Require(options_.server.prominence_column);
    LBSAGG_CHECK(dataset_->schema().type(col) == AttrType::kDouble);
    prominence_.reserve(dataset_->size());
    for (const Tuple& t : dataset_->tuples()) {
      prominence_.push_back(std::get<double>(t.values[col]));
    }
  }
}

double ShardedLbsServer::ShardMinDist2(const Shard& shard,
                                       const Vec2& q) const {
  if (shard.ids.empty()) return std::numeric_limits<double>::infinity();
  const Box& b = shard.bbox;
  const double dx = std::max({b.lo.x - q.x, 0.0, q.x - b.hi.x});
  const double dy = std::max({b.lo.y - q.y, 0.0, q.y - b.hi.y});
  return dx * dx + dy * dy;
}

std::vector<int> ShardedLbsServer::ReachableShards(const Vec2& q) const {
  // Distance-domain test: every point p in the shard satisfies
  // d2(q, p) >= mind2 under monotone IEEE rounding, and sqrt(x*x) == x
  // exactly, so sqrt(mind2) > max_radius proves the shard can contribute
  // nothing whether the caller compares distances (the kNN radius trim) or
  // squared distances (the range-query inclusion test).
  const double r = options_.server.max_radius;
  std::vector<int> reachable;
  reachable.reserve(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    if (shards_[s].ids.empty()) continue;
    if (std::sqrt(ShardMinDist2(shards_[s], q)) > r) continue;
    reachable.push_back(s);
  }
  return reachable;
}

std::vector<ServerHit> ShardedLbsServer::QueryShard(
    int shard, const Vec2& q, int k, const TupleFilter& filter) const {
  LBSAGG_CHECK_GE(shard, 0);
  LBSAGG_CHECK_LT(shard, num_shards());
  LBSAGG_CHECK_GE(k, 1);
  k = std::min(k, options_.server.max_k);
  const Shard& sh = shards_[shard];
  std::vector<ServerHit> hits;
  if (sh.ids.empty()) return hits;

  if (options_.server.ranking == RankingMode::kProminence) {
    // Shard-local mirror of the monolithic prominence path: everything in
    // coverage, filtered, scored, re-ranked by (score, global id). The
    // shard's top-k page is enough for an exact global merge: any global
    // winner ranks at least as high within its own shard.
    std::vector<Neighbor> in_range =
        sh.index->WithinRadius(q, options_.server.max_radius);
    std::vector<std::pair<double, ShardCandidate>> scored;  // (score, cand)
    scored.reserve(in_range.size());
    for (const Neighbor& n : in_range) {
      const int id = sh.ids[n.index];
      if (filter && !filter(dataset_->tuple(id))) continue;
      const double score =
          n.distance - options_.server.prominence_weight * prominence_[id];
      scored.push_back({score, {0.0, n.distance, id}});
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                return a.first < b.first ||
                       (a.first == b.first && a.second.id < b.second.id);
              });
    if (scored.size() > static_cast<size_t>(k)) scored.resize(k);
    hits.reserve(scored.size());
    for (const auto& entry : scored) {
      hits.push_back({entry.second.id, entry.second.distance});
    }
    return hits;
  }

  IndexFilter index_filter;
  if (filter) {
    index_filter = [this, &sh, &filter](int local) {
      return filter(dataset_->tuple(sh.ids[local]));
    };
  }
  for (const Neighbor& n : sh.index->NearestFiltered(q, k, index_filter)) {
    if (n.distance > options_.server.max_radius) break;  // sorted ascending
    hits.push_back({sh.ids[n.index], n.distance});
  }
  return hits;
}

std::vector<ServerHit> ShardedLbsServer::MergeShardPages(
    const Vec2& q, const std::vector<std::vector<ServerHit>>& pages,
    int k) const {
  LBSAGG_CHECK_GE(k, 1);
  k = std::min(k, options_.server.max_k);

  if (options_.server.ranking == RankingMode::kProminence) {
    struct Scored {
      double score;
      int id;
      double distance;
    };
    std::vector<Scored> scored;
    for (const auto& page : pages) {
      for (const ServerHit& h : page) {
        scored.push_back(
            {h.distance - options_.server.prominence_weight *
                              prominence_[h.tuple_id],
             h.tuple_id, h.distance});
      }
    }
    std::sort(scored.begin(), scored.end(), [](const Scored& a,
                                               const Scored& b) {
      return a.score < b.score || (a.score == b.score && a.id < b.id);
    });
    if (scored.size() > static_cast<size_t>(k)) scored.resize(k);
    std::vector<ServerHit> hits;
    hits.reserve(scored.size());
    for (const Scored& s : scored) hits.push_back({s.id, s.distance});
    return hits;
  }

  std::vector<ShardCandidate> candidates;
  for (const auto& page : pages) {
    for (const ServerHit& h : page) {
      candidates.push_back({SquaredDistanceTo(q, effective_pos_[h.tuple_id]),
                            h.distance, h.tuple_id});
    }
  }
  SortTruncate(&candidates, k);
  return ToHits(candidates);
}

int ShardedLbsServer::shard_of(int tuple_id) const {
  LBSAGG_CHECK_GE(tuple_id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(tuple_id), shard_of_.size());
  return shard_of_[tuple_id];
}

const std::vector<int>& ShardedLbsServer::shard_ids(int shard) const {
  LBSAGG_CHECK_GE(shard, 0);
  LBSAGG_CHECK_LT(shard, num_shards());
  return shards_[shard].ids;
}

const Vec2& ShardedLbsServer::EffectivePosition(int id) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), effective_pos_.size());
  return effective_pos_[id];
}

}  // namespace lbsagg
