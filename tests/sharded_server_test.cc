// Sharded LbsServer bit-identity: the shard count and build thread count
// are invisible through the query interface — every answer is bit-identical
// to the one-shard LbsServer over the same dataset and options, the same
// guarantee the index backends give (spatial_equivalence_test.cc). Both
// also match a naive scan that shares no ranking code with the server, d2
// included: the gather ranks hits by the d2 their shard's index computed,
// so the naive scan's d2 holds the k-d tree's.

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lbs/dataset.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "transport/sharded_transport.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {1000, 600});

Schema MakeSchema() {
  Schema s;
  s.AddColumn("category", AttrType::kString);
  s.AddColumn("score", AttrType::kDouble);
  return s;
}

Dataset MakeDataset(int n, uint64_t seed) {
  Dataset d(kBox, MakeSchema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    d.Add(kBox.SamplePoint(rng),
          {std::string(i % 4 == 0 ? "restaurant" : "other"),
           rng.Uniform(0.0, 10.0)});
  }
  return d;
}

std::vector<Vec2> MakeQueries(int n, uint64_t seed) {
  // Sample beyond the box too, so bbox pruning sees exterior queries.
  Rng rng(seed);
  std::vector<Vec2> queries;
  const Box outside = kBox.Expanded(150.0);
  for (int i = 0; i < n; ++i) queries.push_back(outside.SamplePoint(rng));
  return queries;
}

void ExpectHitsEqual(const std::vector<ServerHit>& a,
                     const std::vector<ServerHit>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple_id, b[i].tuple_id) << what << " rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << what << " rank " << i;
    EXPECT_EQ(a[i].d2, b[i].d2) << what << " rank " << i;
  }
}

// The uncapped reference gather: every reachable shard answers its full
// page, and the pages merge. The production gather (GatherShards, which
// Query and ShardedTransport::Fulfill run) caps and skips far shards and
// must return the same page.
std::vector<ServerHit> Gather(const ShardedLbsServer& sharded, const Vec2& q,
                              int k, const TupleFilter& filter = nullptr) {
  std::vector<std::vector<ServerHit>> pages;
  for (int s : sharded.ReachableShards(q)) {
    pages.push_back(sharded.QueryShard(s, q, k, filter));
  }
  return sharded.MergeShardPages(pages, k);
}

void ExpectBitIdentical(const Dataset& d, const ServerOptions& server_opts,
                        const ShardedServerOptions& sharded_opts,
                        const std::vector<Vec2>& queries, int k,
                        const TupleFilter& filter, const char* what) {
  const LbsServer mono(&d, server_opts);
  const ShardedLbsServer sharded(&d, sharded_opts);
  for (const Vec2& q : queries) {
    const std::vector<ServerHit> expected = mono.Query(q, k, filter);
    ExpectHitsEqual(Gather(sharded, q, k, filter), expected, what);
    ExpectHitsEqual(sharded.Query(q, k, filter), expected, what);
  }
}

// The ranking reference: scans every tuple's effective position, applies
// the filter and the d_max trim, and orders by (d2, id), or by (score, id)
// under prominence. It shares no code with QueryShard or MergeShardPages.
std::vector<ServerHit> NaiveQuery(const LbsServer& server, const Vec2& q,
                                  int k, const TupleFilter& filter) {
  const ServerOptions& opts = server.options();
  const Dataset& d = server.dataset();
  const bool prominence = opts.ranking == RankingMode::kProminence;
  const int score_col =
      prominence ? d.schema().Require(opts.prominence_column) : -1;
  struct Candidate {
    double key;
    int id;
    double distance;
    double d2;
  };
  std::vector<Candidate> all;
  for (size_t i = 0; i < d.size(); ++i) {
    const int id = static_cast<int>(i);
    const Tuple& t = d.tuple(id);
    if (filter && !filter(t)) continue;
    const Vec2& p = server.EffectivePosition(id);
    const double dx = p.x - q.x;
    const double dy = p.y - q.y;
    const double d2 = dx * dx + dy * dy;
    const double distance = std::sqrt(d2);
    if (distance > opts.max_radius) continue;
    const double key =
        prominence ? distance - opts.prominence_weight *
                                    std::get<double>(t.values[score_col])
                   : d2;
    all.push_back({key, id, distance, d2});
  }
  std::sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  });
  std::vector<ServerHit> hits;
  for (const Candidate& c : all) {
    if (hits.size() == static_cast<size_t>(std::min(k, opts.max_k))) break;
    hits.push_back({c.id, c.distance, c.d2});
  }
  return hits;
}

// Tuples on the 50-unit lattice of ShardPagesMergeToGlobalAnswerInAnyOrder,
// where exact d2 ties reach the id tie-break. Scores are 0, 1 or 2, so
// under prominence weight 50 a tuple one lattice step farther with a score
// one higher ties exactly too.
Dataset MakeLatticeDataset(int n, uint64_t seed) {
  Dataset d(kBox, MakeSchema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    d.Add({50.0 * rng.UniformInt(21), 50.0 * rng.UniformInt(13)},
          {std::string(i % 3 == 0 ? "restaurant" : "other"),
           static_cast<double>(rng.UniformInt(3))});
  }
  return d;
}

TEST(ShardedServer, PartitionCoversDataset) {
  const Dataset d = MakeDataset(500, 7);
  for (int shards : {1, 7}) {
    const ShardedLbsServer sharded(&d, {.num_shards = shards});
    ASSERT_EQ(sharded.num_shards(), shards);
    std::vector<int> seen(d.size(), 0);
    for (int s = 0; s < sharded.num_shards(); ++s) {
      const std::vector<int>& ids = sharded.shard_ids(s);
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      for (int id : ids) ++seen[id];
    }
    for (size_t id = 0; id < d.size(); ++id) {
      EXPECT_EQ(seen[id], 1) << "tuple " << id << " not in exactly one shard";
    }
  }
}

TEST(ShardedServer, QueryBitIdenticalToMonolithEveryShardCount) {
  const Dataset d = MakeDataset(1500, 11);
  const std::vector<Vec2> queries = MakeQueries(120, 21);
  for (int shards : {1, 3, 4, 16}) {
    for (int k : {1, 5, 50}) {
      ExpectBitIdentical(d, {}, {.num_shards = shards}, queries, k, nullptr,
                         "plain knn");
    }
  }
}

TEST(ShardedServer, OneAndManyShardsMatchNaiveScan) {
  const Dataset d = MakeLatticeDataset(1000, 43);
  const TupleFilter restaurants = [](const Tuple& t) {
    return std::get<std::string>(t.values[0]) == "restaurant";
  };
  ServerOptions nearest{.max_k = 10};
  // One lattice step: the trim binds, and tuples exactly at d_max stay.
  ServerOptions trimmed{.max_k = 10, .max_radius = 50.0};
  ServerOptions prominence = trimmed;
  prominence.ranking = RankingMode::kProminence;
  prominence.prominence_column = "score";
  prominence.prominence_weight = 50.0;
  Rng rng(47);
  std::vector<Vec2> queries;
  for (int i = 0; i < 60; ++i) {
    queries.push_back({50.0 * rng.UniformInt(21), 50.0 * rng.UniformInt(13)});
  }
  for (const ServerOptions& opts : {nearest, trimmed, prominence}) {
    const LbsServer one(&d, opts);
    const ShardedLbsServer many(&d, {.num_shards = 8, .server = opts});
    for (const TupleFilter& filter : {TupleFilter{}, restaurants}) {
      for (int k : {3, 10}) {
        for (const Vec2& q : queries) {
          const std::vector<ServerHit> expected = NaiveQuery(one, q, k, filter);
          ExpectHitsEqual(one.Query(q, k, filter), expected, "one shard");
          ExpectHitsEqual(many.Query(q, k, filter), expected, "eight shards");
        }
      }
    }
  }
}

TEST(ShardedServer, RadiusAndFilterBitIdentical) {
  const Dataset d = MakeDataset(1500, 13);
  const std::vector<Vec2> queries = MakeQueries(120, 23);
  const TupleFilter restaurants = [](const Tuple& t) {
    return std::get<std::string>(t.values[0]) == "restaurant";
  };
  ServerOptions opts;
  opts.max_radius = 60.0;
  for (int shards : {1, 4, 16}) {
    ExpectBitIdentical(d, opts, {.num_shards = shards, .server = opts},
                       queries, 7, restaurants, "radius+filter");
  }
}

TEST(ShardedServer, ObfuscationSharedWithMonolith) {
  const Dataset d = MakeDataset(800, 17);
  ServerOptions opts;
  opts.obfuscation_radius = 5.0;
  const LbsServer mono(&d, opts);
  const ShardedLbsServer sharded(&d, {.num_shards = 8, .server = opts});
  for (size_t id = 0; id < d.size(); ++id) {
    EXPECT_EQ(sharded.EffectivePosition(id).x,
              mono.EffectivePosition(id).x);
    EXPECT_EQ(sharded.EffectivePosition(id).y,
              mono.EffectivePosition(id).y);
  }
  for (const Vec2& q : MakeQueries(80, 29)) {
    ExpectHitsEqual(Gather(sharded, q, 5), mono.Query(q, 5), "obfuscated");
  }
}

TEST(ShardedServer, ProminenceBitIdentical) {
  const Dataset d = MakeDataset(1200, 19);
  const std::vector<Vec2> queries = MakeQueries(100, 31);
  ServerOptions opts;
  opts.ranking = RankingMode::kProminence;
  opts.prominence_column = "score";
  opts.prominence_weight = 0.7;
  opts.max_radius = 80.0;
  for (int shards : {1, 4, 16}) {
    ExpectBitIdentical(d, opts, {.num_shards = shards, .server = opts},
                       queries, 6, nullptr, "prominence");
  }
}

TEST(ShardedServer, AlternateIndexBackendsBitIdentical) {
  // Brute-force shards against the k-d tree monolith.
  const Dataset d = MakeDataset(1000, 23);
  ServerOptions brute;
  brute.index_backend = IndexBackend::kBruteForce;
  ExpectBitIdentical(d, {}, {.num_shards = 8, .server = brute},
                     MakeQueries(80, 37), 5, nullptr, "brute-force shards");
}

TEST(ShardedServer, ShardPagesMergeToGlobalAnswerInAnyOrder) {
  // Tuples and queries on a 50-unit lattice, several tuples per node: exact
  // d2 ties, within a shard and across shards, reach the id tie-break.
  Dataset d(kBox, MakeSchema());
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    d.Add({50.0 * rng.UniformInt(21), 50.0 * rng.UniformInt(13)},
          {std::string("other"), 0.0});
  }
  const LbsServer mono(&d, {.max_k = 10});
  const ShardedLbsServer sharded(&d, {.num_shards = 8,
                                      .server = {.max_k = 10}});
  std::mt19937 shuffler(7);
  for (int i = 0; i < 50; ++i) {
    const Vec2 q{50.0 * rng.UniformInt(21), 50.0 * rng.UniformInt(13)};
    const std::vector<ServerHit> expected = mono.Query(q, 10);
    std::vector<std::vector<ServerHit>> pages;
    for (int s : sharded.ReachableShards(q)) {
      pages.push_back(sharded.QueryShard(s, q, 10));
    }
    ExpectHitsEqual(sharded.MergeShardPages(pages, 10), expected, "merge");
    // Arrival order and page-internal order are irrelevant.
    for (int trial = 0; trial < 3; ++trial) {
      std::shuffle(pages.begin(), pages.end(), shuffler);
      for (auto& page : pages) {
        std::shuffle(page.begin(), page.end(), shuffler);
      }
      ExpectHitsEqual(sharded.MergeShardPages(pages, 10), expected,
                      "merge shuffled");
    }
  }
}

TEST(ShardedServer, BuildThreadCountDoesNotChangeAnswers) {
  const Dataset d = MakeDataset(1200, 37);
  const std::vector<Vec2> queries = MakeQueries(60, 53);
  const ShardedLbsServer serial(&d, {.num_shards = 8, .build_threads = 1});
  const ShardedLbsServer parallel(&d, {.num_shards = 8, .build_threads = 4});
  EXPECT_EQ(serial.build_stats().shard_build_ms.size(), 8u);
  EXPECT_GE(serial.build_stats().wall_ms, 0.0);
  EXPECT_GE(serial.build_stats().critical_path_ms(), 0.0);
  for (const Vec2& q : queries) {
    ExpectHitsEqual(Gather(parallel, q, 5), Gather(serial, q, 5), "threads");
  }
}

// City clusters over four Z-order shards. A Morton key range is not a
// rectangle, so the shards' bounding boxes overlap, and a query often lies
// inside several of them at bbox d2 0, where the gather's lane order falls
// to its home-shard tie-break. Whatever lane goes first, every page,
// through Query and through the wire, equals the one-shard server's in
// ids, distances and d2: under distance ranking with and without a filter,
// with a finite d_max, and under prominence. The queries cover q inside
// several shard boxes, q outside its home shard's box, q on the dataset
// box's edge and outside it (where the Morton key clamps), and q at every
// tuple: below 65,536 tuples the splitter sample is every key, so each
// splitter is some tuple's key and a query there hits it exactly. A server
// with more shards than tuples gives queries an empty home shard.
TEST(ShardedServer, HomeShardFirstAmongTiedLanesKeepsPagesBitIdentical) {
  Dataset d(kBox, MakeSchema());
  Rng rng(71);
  std::vector<Vec2> centers;
  for (int c = 0; c < 6; ++c) centers.push_back(kBox.SamplePoint(rng));
  for (int i = 0; i < 2000; ++i) {
    const Vec2& c = centers[i % 2 == 0 ? 0 : rng.UniformInt(6)];
    const double spread = 5.0 + 60.0 * rng.Uniform01();
    d.Add(kBox.Clamp(c + Vec2{rng.Uniform(-spread, spread),
                              rng.Uniform(-spread, spread)}),
          {std::string(i % 4 == 0 ? "restaurant" : "other"),
           rng.Uniform(0.0, 10.0)});
  }
  Dataset tiny(kBox, MakeSchema());
  for (const Vec2& p : {Vec2{700, 400}, Vec2{720, 380}, Vec2{300, 500}}) {
    tiny.Add(p, {std::string("restaurant"), 1.0});
  }

  std::vector<Vec2> queries;
  for (int i = 0; i < 200; ++i) queries.push_back(kBox.SamplePoint(rng));
  for (int i = 0; i <= 10; ++i) {
    const double t = i / 10.0;
    queries.push_back({t * kBox.width(), kBox.lo.y});
    queries.push_back({t * kBox.width(), kBox.hi.y});
    queries.push_back({kBox.lo.x, t * kBox.height()});
    queries.push_back({kBox.hi.x, t * kBox.height()});
  }
  const Box outside = kBox.Expanded(150.0);
  for (int i = 0; i < 60;) {
    const Vec2 q = outside.SamplePoint(rng);
    if (!kBox.Contains(q)) {
      queries.push_back(q);
      ++i;
    }
  }
  queries.push_back(outside.lo);
  for (size_t id = 0; id < d.size(); ++id) queries.push_back(d.tuple(id).pos);

  const TupleFilter restaurants = [](const Tuple& t) {
    return std::get<std::string>(t.values[0]) == "restaurant";
  };
  ServerOptions trimmed{.max_k = 10, .max_radius = 40.0};
  ServerOptions prominence{.max_k = 10, .max_radius = 80.0};
  prominence.ranking = RankingMode::kProminence;
  prominence.prominence_column = "score";
  prominence.prominence_weight = 3.0;

  for (const Dataset* data : {&d, &tiny}) {
    const int shards = data == &d ? 4 : 8;
    const ShardedLbsServer sharded(data, {.num_shards = shards});
    // Each shard's bbox, from its tuples.
    std::vector<Box> boxes(shards);
    for (int s = 0; s < shards; ++s) {
      const std::vector<int>& ids = sharded.shard_ids(s);
      if (ids.empty()) continue;
      boxes[s] = Box(data->tuple(ids[0]).pos, data->tuple(ids[0]).pos);
      for (int id : ids) boxes[s] = boxes[s].Including(data->tuple(id).pos);
    }
    // A tuple's own position is in its owner's key range.
    for (int s = 0; s < shards; ++s) {
      for (int id : sharded.shard_ids(s)) {
        EXPECT_EQ(sharded.HomeShard(data->tuple(id).pos), s) << "tuple " << id;
      }
    }
    int in_several = 0;
    int away_from_home = 0;
    int empty_home = 0;
    for (const Vec2& q : queries) {
      const int home = sharded.HomeShard(q);
      if (sharded.shard_ids(home).empty()) {
        ++empty_home;
        continue;
      }
      int containing = 0;
      for (int s = 0; s < shards; ++s) {
        containing += !sharded.shard_ids(s).empty() && boxes[s].Contains(q);
      }
      in_several += containing >= 2;
      away_from_home += !boxes[home].Contains(q);
    }
    if (data == &d) {
      EXPECT_GT(in_several, 100);
      EXPECT_GT(away_from_home, 10);
    } else {
      EXPECT_GT(empty_home, 0);
    }

    for (const ServerOptions& opts : {ServerOptions{.max_k = 10}, trimmed,
                                      prominence}) {
      const LbsServer one(data, opts);
      const ShardedLbsServer many(data,
                                  {.num_shards = shards, .server = opts});
      ShardedTransport wire(&many);
      for (const TupleFilter& filter : {TupleFilter{}, restaurants}) {
        for (int k : {1, 5, 10}) {
          for (const Vec2& q : queries) {
            const std::vector<ServerHit> expected = one.Query(q, k, filter);
            ExpectHitsEqual(many.Query(q, k, filter), expected, "query");
            const TransportReply reply = wire.Query(q, k, filter);
            ASSERT_EQ(reply.outcome, TransportOutcome::kOk);
            ExpectHitsEqual(reply.hits, expected, "wire");
          }
        }
      }
    }
  }
}

TEST(ShardedServer, MoreShardsThanTuples) {
  const Dataset d = MakeDataset(5, 41);
  ExpectBitIdentical(d, {}, {.num_shards = 16}, MakeQueries(30, 59), 10,
                     nullptr, "tiny dataset");
}

}  // namespace
}  // namespace lbsagg
