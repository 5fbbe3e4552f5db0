#include "lbs/server.h"

#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "spatial/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace lbsagg {

namespace {

// Effective (possibly obfuscated) tuple positions in id order.
std::vector<Vec2> ComputeEffectivePositions(const Dataset& dataset,
                                            const ServerOptions& options) {
  std::vector<Vec2> positions = dataset.Positions();
  if (options.obfuscation_radius <= 0.0) return positions;
  for (size_t i = 0; i < positions.size(); ++i) {
    // Deterministic per-tuple noise so repeated queries are consistent, as
    // they are on the real services.
    Rng rng(options.obfuscation_seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    const double angle = rng.Uniform(0.0, 2.0 * M_PI);
    const double radius = options.obfuscation_radius * std::sqrt(rng.Uniform01());
    positions[i] += Vec2{std::cos(angle), std::sin(angle)} * radius;
    positions[i] = dataset.box().Clamp(positions[i]);
  }
  return positions;
}

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

// Each shard's global ids, ascending, so a shard index's local-position
// tie-break equals the global (d2, id) tie order. One shard owns every
// tuple. N shards are a Z-order range partition by sampled splitters: each
// shard owns one contiguous Morton-key range, chosen from the key quantiles
// of a deterministic stride sample. Shards are spatially coherent, which is
// what makes coverage-radius shard pruning (ReachableShards) effective.
// O(n) assignment instead of an O(n log n) full sort — the partition is off
// the build's critical path even at 10^8 tuples (bench/fig18_sharded.cc) —
// at the cost of shard sizes being only approximately equal
// (splitter-grade, not exact cuts).
std::vector<std::vector<int>> PartitionIds(const std::vector<Vec2>& positions,
                                           const Box& box, int num_shards) {
  const int n = static_cast<int>(positions.size());
  std::vector<std::vector<int>> ids(num_shards);
  if (num_shards == 1) {
    ids[0].resize(n);
    std::iota(ids[0].begin(), ids[0].end(), 0);
    return ids;
  }
  std::vector<uint32_t> key(n);
  for (int id = 0; id < n; ++id) key[id] = MortonKey(positions[id], box);
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
    ids[std::upper_bound(splitters.begin(), splitters.end(), key[id]) -
        splitters.begin()]
        .push_back(id);
  }
  return ids;
}

// Squared distance from q to a shard's bbox (0 inside).
double ShardMinDist2(const Box& b, const Vec2& q) {
  const double dx = std::max({b.lo.x - q.x, 0.0, q.x - b.hi.x});
  const double dy = std::max({b.lo.y - q.y, 0.0, q.y - b.hi.y});
  return dx * dx + dy * dy;
}

// One candidate of a page, ranked by (key, id): `key` is the prominence
// score under kProminence, otherwise the exact squared distance
// dx*dx + dy*dy. The builds use no FP-contraction flags, so d2 is the same
// IEEE double in every translation unit, and ordering by it reproduces the
// SpatialIndex (squared distance, index) contract exactly. Sorting by
// `distance` instead would be wrong: two distinct d2 can round to the same
// sqrt, and the id tie-break would then disagree with the index's d2 order.
struct Ranked {
  double key = 0.0;
  int id = -1;            // global tuple id
  double distance = 0.0;  // what the ServerHit carries
};

// Top-k under the total order (key, id): input order is irrelevant, so any
// permutation (shard arrival order, worker interleaving) ranks the same.
std::vector<ServerHit> TopK(std::vector<Ranked> ranked, int k) {
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  });
  if (ranked.size() > static_cast<size_t>(k)) ranked.resize(k);
  std::vector<ServerHit> hits;
  hits.reserve(ranked.size());
  for (const Ranked& r : ranked) hits.push_back({r.id, r.distance});
  return hits;
}

}  // namespace

LbsServer::LbsServer(const Dataset* dataset, ServerOptions options)
    : LbsServer(dataset, std::move(options), 1, 1) {}

LbsServer::LbsServer(const Dataset* dataset, ServerOptions options,
                     int num_shards, unsigned build_threads)
    : dataset_(dataset), options_(std::move(options)) {
  LBSAGG_CHECK(dataset_ != nullptr);
  LBSAGG_CHECK_GE(num_shards, 1);
  LBSAGG_CHECK_GE(options_.max_k, 1);
  if (options_.ranking == RankingMode::kProminence) {
    LBSAGG_CHECK(std::isfinite(options_.max_radius))
        << "prominence ranking requires a finite max_radius";
    const int col = dataset_->schema().Require(options_.prominence_column);
    LBSAGG_CHECK(dataset_->schema().type(col) == AttrType::kDouble);
    prominence_.reserve(dataset_->size());
    for (const Tuple& t : dataset_->tuples()) {
      prominence_.push_back(std::get<double>(t.values[col]));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  effective_pos_ = ComputeEffectivePositions(*dataset_, options_);
  std::vector<std::vector<int>> ids =
      PartitionIds(effective_pos_, dataset_->box(), num_shards);
  shards_.resize(num_shards);
  std::vector<std::vector<Vec2>> shard_points(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    shards_[s].ids = std::move(ids[s]);
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
      options_.index_backend, std::move(shard_points), build_threads,
      options_.stats_registry, &build_stats_.shard_build_ms);
  for (int s = 0; s < num_shards; ++s) {
    shards_[s].index = std::move(indexes[s]);
  }
  build_stats_.wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
}

std::vector<ServerHit> LbsServer::Query(const Vec2& q, int k,
                                        const TupleFilter& filter) const {
  if (num_shards() == 1) return QueryShard(0, q, k, filter);
  std::vector<std::vector<ServerHit>> pages;
  for (int s : ReachableShards(q)) {
    pages.push_back(QueryShard(s, q, k, filter));
  }
  return MergeShardPages(q, pages, k);
}

std::vector<int> LbsServer::ReachableShards(const Vec2& q) const {
  // Distance-domain test: every point p in the shard satisfies
  // d2(q, p) >= mind2 under monotone IEEE rounding, and sqrt(x*x) == x
  // exactly, so sqrt(mind2) > max_radius proves the shard can contribute
  // nothing whether the caller compares distances (the kNN radius trim) or
  // squared distances (the range-query inclusion test).
  std::vector<int> reachable;
  reachable.reserve(shards_.size());
  for (int s = 0; s < num_shards(); ++s) {
    if (shards_[s].ids.empty()) continue;
    if (std::sqrt(ShardMinDist2(shards_[s].bbox, q)) > options_.max_radius) {
      continue;
    }
    reachable.push_back(s);
  }
  return reachable;
}

std::vector<ServerHit> LbsServer::QueryShard(int shard, const Vec2& q, int k,
                                             const TupleFilter& filter) const {
  LBSAGG_CHECK_GE(shard, 0);
  LBSAGG_CHECK_LT(shard, num_shards());
  LBSAGG_CHECK_GE(k, 1);
  k = std::min(k, options_.max_k);
  const Shard& sh = shards_[shard];
  if (sh.ids.empty()) return {};

  if (options_.ranking == RankingMode::kProminence) {
    // Everything in coverage, filtered, scored, re-ranked by (score, global
    // id). The shard's top-k page is enough for an exact global merge: any
    // global winner ranks at least as high within its own shard.
    std::vector<Ranked> scored;
    for (const Neighbor& n : sh.index->WithinRadius(q, options_.max_radius)) {
      const int id = sh.ids[n.index];
      if (filter && !filter(dataset_->tuple(id))) continue;
      scored.push_back(
          {n.distance - options_.prominence_weight * prominence_[id], id,
           n.distance});
    }
    return TopK(std::move(scored), k);
  }

  IndexFilter index_filter;
  if (filter) {
    index_filter = [this, &sh, &filter](int local) {
      return filter(dataset_->tuple(sh.ids[local]));
    };
  }
  const std::vector<Neighbor> nearest =
      sh.index->NearestFiltered(q, k, index_filter);
  std::vector<ServerHit> hits;
  hits.reserve(nearest.size());
  for (const Neighbor& n : nearest) {
    if (n.distance > options_.max_radius) break;  // sorted ascending
    hits.push_back({sh.ids[n.index], n.distance});
  }
  return hits;
}

std::vector<ServerHit> LbsServer::MergeShardPages(
    const Vec2& q, const std::vector<std::vector<ServerHit>>& pages,
    int k) const {
  LBSAGG_CHECK_GE(k, 1);
  k = std::min(k, options_.max_k);
  const bool prominence = options_.ranking == RankingMode::kProminence;
  std::vector<Ranked> candidates;
  for (const auto& page : pages) {
    for (const ServerHit& h : page) {
      const double key =
          prominence ? h.distance - options_.prominence_weight *
                                        prominence_[h.tuple_id]
                     : SquaredDistance(q, effective_pos_[h.tuple_id]);
      candidates.push_back({key, h.tuple_id, h.distance});
    }
  }
  return TopK(std::move(candidates), k);
}

const std::vector<int>& LbsServer::shard_ids(int shard) const {
  LBSAGG_CHECK_GE(shard, 0);
  LBSAGG_CHECK_LT(shard, num_shards());
  return shards_[shard].ids;
}

const Vec2& LbsServer::EffectivePosition(int id) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), effective_pos_.size());
  return effective_pos_[id];
}

}  // namespace lbsagg
