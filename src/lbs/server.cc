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
// of a deterministic stride sample: the N - 1 `splitters` it fills, shard
// s owning keys < (*splitters)[s]. Shards are spatially coherent, which is
// what makes coverage-radius shard pruning (ReachableShards) effective.
// O(n) assignment instead of an O(n log n) full sort — the partition is off
// the build's critical path even at 10^8 tuples (bench/fig18_sharded.cc) —
// at the cost of shard sizes being only approximately equal
// (splitter-grade, not exact cuts).
std::vector<std::vector<int>> PartitionIds(const std::vector<Vec2>& positions,
                                           const Box& box, int num_shards,
                                           std::vector<uint32_t>* splitters) {
  const int n = static_cast<int>(positions.size());
  std::vector<std::vector<int>> ids(num_shards);
  splitters->clear();
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
  splitters->reserve(num_shards - 1);
  for (int s = 1; s < num_shards; ++s) {
    splitters->push_back(sample[sample.size() * s / num_shards]);
  }
  for (int id = 0; id < n; ++id) {
    ids[std::upper_bound(splitters->begin(), splitters->end(), key[id]) -
        splitters->begin()]
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
// score under kProminence, otherwise the squared distance the shard's
// index ranked the hit by (ServerHit::d2), so ordering by it reproduces
// the SpatialIndex (squared distance, index) contract exactly. Sorting by
// `distance` instead would be wrong: two distinct d2 can round to the same
// sqrt, and the id tie-break would then disagree with the index's d2 order.
struct Ranked {
  double key = 0.0;
  ServerHit hit;  // global tuple id and the distance the page carries
};

bool RanksBefore(const Ranked& a, const Ranked& b) {
  return a.key < b.key ||
         (a.key == b.key && a.hit.tuple_id < b.hit.tuple_id);
}

// The best `want` candidates offered so far, ascending in (key, id), in one
// buffer reserved up front. (key, id) is a total order on distinct tuples,
// so the result does not depend on the order candidates arrive in (shard
// arrival order, worker interleaving), and trimming as they arrive is
// exact: a candidate outside the best `want` of a subset is outside the
// best `want` of the whole set.
class RunningTopK {
 public:
  explicit RunningTopK(int want) : want_(static_cast<size_t>(want)) {
    best_.reserve(want_);
  }

  // The `want`-th best key, +inf until `want` candidates are in.
  double Bound() const {
    return best_.size() < want_ ? std::numeric_limits<double>::infinity()
                                : best_.back().key;
  }

  void Offer(double key, const ServerHit& hit) {
    const Ranked r{key, hit};
    if (best_.size() == want_) {
      if (!RanksBefore(r, best_.back())) return;
      best_.pop_back();
    }
    best_.insert(std::upper_bound(best_.begin(), best_.end(), r, RanksBefore),
                 r);
  }

  std::vector<ServerHit> Hits() const {
    std::vector<ServerHit> hits;
    hits.reserve(best_.size());
    for (const Ranked& r : best_) hits.push_back(r.hit);
    return hits;
  }

 private:
  size_t want_;
  std::vector<Ranked> best_;
};

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
      PartitionIds(effective_pos_, dataset_->box(), num_shards, &splitters_);
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
  return GatherShards(q, k, filter);
}

std::vector<ServerHit> LbsServer::GatherShards(
    const Vec2& q, int k, const TupleFilter& filter,
    const Truncation& truncation) const {
  // One shard's page is already in (d2, id) order and radius-trimmed, and
  // an unreachable shard's page trims to empty: nothing to fold.
  if (num_shards() == 1 && truncation.shards.empty()) {
    return QueryShard(0, q, k, filter);
  }
  LBSAGG_CHECK_GE(k, 1);
  constexpr double kNoCap = std::numeric_limits<double>::infinity();
  const bool capped_ranking = options_.ranking == RankingMode::kDistance;
  // A global top-k hit has d2 <= the k-th d2 of any k gathered hits, so
  // the inclusive cap keeps it (DESIGN.md §4.11).
  RunningTopK best(std::min(k, options_.max_k));
  // Lanes nearest-first, in ascending (bbox d2, home, shard id): q often
  // lies inside several overlapping shard boxes at bbox d2 0, and among
  // those the home shard is the likeliest to hold q's neighbours and set a
  // tight cap for the rest. Each pass picks the smallest (bbox d2, rank)
  // above the previous lane's, so no order is stored.
  const int home = HomeShard(q);
  const auto rank = [home](int s) { return s == home ? -1 : s; };
  double last_d2 = -kNoCap;
  int last_rank = -2;
  for (;;) {
    int shard = -1;
    double bbox_d2 = kNoCap;
    for (int s = 0; s < num_shards(); ++s) {
      const double d2 = ShardMinDist2(shards_[s].bbox, q);
      const bool after_last =
          d2 > last_d2 || (d2 == last_d2 && rank(s) > last_rank);
      if (!after_last || !Reachable(s, d2)) continue;
      if (shard < 0 || d2 < bbox_d2 ||
          (d2 == bbox_d2 && rank(s) < rank(shard))) {
        shard = s;
        bbox_d2 = d2;
      }
    }
    if (shard < 0) break;
    last_d2 = bbox_d2;
    last_rank = rank(shard);
    const auto cut = std::lower_bound(truncation.shards.begin(),
                                      truncation.shards.end(), shard);
    const bool truncated = cut != truncation.shards.end() && *cut == shard;
    const double lane_cap =
        capped_ranking && !truncated ? best.Bound() : kNoCap;
    // Monotone rounding puts every point of the shard at d2 >= bbox_d2.
    if (bbox_d2 > lane_cap) {
      // Every later lane lies as far or farther under a cap no higher, so
      // only an uncapped (truncated) lane could still answer.
      if (truncation.shards.empty()) break;
      continue;
    }
    std::vector<ServerHit> page = QueryShard(shard, q, k, filter, lane_cap);
    if (truncated) truncation.cut(cut - truncation.shards.begin(), &page);
    for (const ServerHit& h : page) best.Offer(RankKey(h), h);
  }
  return best.Hits();
}

int LbsServer::HomeShard(const Vec2& q) const {
  return static_cast<int>(
      std::upper_bound(splitters_.begin(), splitters_.end(),
                       MortonKey(q, dataset_->box())) -
      splitters_.begin());
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
    if (Reachable(s, ShardMinDist2(shards_[s].bbox, q))) reachable.push_back(s);
  }
  return reachable;
}

bool LbsServer::Reachable(int shard, double bbox_d2) const {
  return !shards_[shard].ids.empty() &&
         !(std::sqrt(bbox_d2) > options_.max_radius);
}

std::vector<ServerHit> LbsServer::QueryShard(int shard, const Vec2& q, int k,
                                             const TupleFilter& filter,
                                             double max_d2) const {
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
    RunningTopK best(k);
    for (const Neighbor& n : sh.index->WithinRadius(q, options_.max_radius)) {
      const ServerHit hit{sh.ids[n.index], n.distance, n.d2};
      if (filter && !filter(dataset_->tuple(hit.tuple_id))) continue;
      best.Offer(RankKey(hit), hit);
    }
    return best.Hits();
  }

  IndexFilter index_filter;
  if (filter) {
    index_filter = [this, &sh, &filter](int local) {
      return filter(dataset_->tuple(sh.ids[local]));
    };
  }
  const std::vector<Neighbor> nearest =
      sh.index->NearestFiltered(q, k, index_filter, max_d2);
  std::vector<ServerHit> hits;
  hits.reserve(nearest.size());
  for (const Neighbor& n : nearest) {
    if (n.distance > options_.max_radius) break;  // sorted ascending
    hits.push_back({sh.ids[n.index], n.distance, n.d2});
  }
  return hits;
}

std::vector<ServerHit> LbsServer::MergeShardPages(
    const std::vector<std::vector<ServerHit>>& pages, int k) const {
  LBSAGG_CHECK_GE(k, 1);
  RunningTopK best(std::min(k, options_.max_k));
  for (const auto& page : pages) {
    for (const ServerHit& h : page) best.Offer(RankKey(h), h);
  }
  return best.Hits();
}

double LbsServer::RankKey(const ServerHit& hit) const {
  return options_.ranking == RankingMode::kProminence
             ? hit.distance -
                   options_.prominence_weight * prominence_[hit.tuple_id]
             : hit.d2;
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
