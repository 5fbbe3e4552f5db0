// ShardedLbsServer bit-identity: the shard count, partitioner, and build
// thread count are invisible through the query interface — every answer is
// bit-identical to the monolithic LbsServer over the same dataset and
// options, the same guarantee the index backends give (spatial_equivalence_
// test.cc). This is acceptance criterion (b) of the sharded backend.

#include <algorithm>
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

// The production gather, as ShardedTransport::Fulfill runs it with every
// lane delivered: scatter to the reachable shards, merge their pages.
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
    ExpectHitsEqual(Gather(sharded, q, k, filter), mono.Query(q, k, filter),
                    what);
  }
}

TEST(ShardedServer, PartitionCoversDataset) {
  const Dataset d = MakeDataset(500, 7);
  for (ShardPartition partition :
       {ShardPartition::kSpatial, ShardPartition::kHash}) {
    const ShardedLbsServer sharded(
        &d, {.num_shards = 7, .partition = partition});
    std::vector<int> seen(d.size(), 0);
    for (int s = 0; s < sharded.num_shards(); ++s) {
      const std::vector<int>& ids = sharded.shard_ids(s);
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      for (int id : ids) {
        EXPECT_EQ(sharded.shard_of(id), s);
        ++seen[id];
      }
    }
    for (size_t id = 0; id < d.size(); ++id) {
      EXPECT_EQ(seen[id], 1) << "tuple " << id << " not in exactly one shard";
    }
  }
}

TEST(ShardedServer, QueryBitIdenticalToMonolithEveryShardCount) {
  const Dataset d = MakeDataset(1500, 11);
  const std::vector<Vec2> queries = MakeQueries(120, 21);
  for (ShardPartition partition :
       {ShardPartition::kSpatial, ShardPartition::kHash}) {
    for (int shards : {1, 3, 4, 16}) {
      for (int k : {1, 5, 50}) {
        ExpectBitIdentical(d, {}, {.num_shards = shards, .partition = partition},
                           queries, k, nullptr, "plain knn");
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
  const std::vector<Vec2> queries = MakeQueries(30, 59);
  for (ShardPartition partition :
       {ShardPartition::kSpatial, ShardPartition::kHash}) {
    ExpectBitIdentical(d, {}, {.num_shards = 16, .partition = partition},
                       queries, 10, nullptr, "tiny dataset");
  }
}

}  // namespace
}  // namespace lbsagg
