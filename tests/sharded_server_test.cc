// Sharded LbsServer bit-identity: the shard count and build thread count
// are invisible through the query interface — every answer is bit-identical
// to the one-shard LbsServer over the same dataset and options, the same
// guarantee the index backends give (spatial_equivalence_test.cc). Both
// also match a naive scan that shares no ranking code with the server.

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lbs/dataset.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
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
  return sharded.MergeShardPages(q, pages, k);
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
    all.push_back({key, id, distance});
  }
  std::sort(all.begin(), all.end(), [](const Candidate& a, const Candidate& b) {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  });
  std::vector<ServerHit> hits;
  for (const Candidate& c : all) {
    if (hits.size() == static_cast<size_t>(std::min(k, opts.max_k))) break;
    hits.push_back({c.id, c.distance});
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
    ExpectHitsEqual(sharded.MergeShardPages(q, pages, 10), expected, "merge");
    // Arrival order and page-internal order are irrelevant.
    for (int trial = 0; trial < 3; ++trial) {
      std::shuffle(pages.begin(), pages.end(), shuffler);
      for (auto& page : pages) {
        std::shuffle(page.begin(), page.end(), shuffler);
      }
      ExpectHitsEqual(sharded.MergeShardPages(q, pages, 10), expected,
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

TEST(ShardedServer, MoreShardsThanTuples) {
  const Dataset d = MakeDataset(5, 41);
  ExpectBitIdentical(d, {}, {.num_shards = 16}, MakeQueries(30, 59), 10,
                     nullptr, "tiny dataset");
}

}  // namespace
}  // namespace lbsagg
