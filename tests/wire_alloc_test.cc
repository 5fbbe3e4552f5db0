// Heap traffic of the fleet's wire: DedupTransport over a 4-shard
// ShardedTransport with clean lanes, every query distinct, so the dedup
// saves nothing and the whole path runs on every query — the registry
// lookup and insert, the scatter's plan, the capped gather and the
// published page. The binary replaces the global operator new with a
// counting one (counting_new.cc) and pins the allocations per interface
// query.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "counting_new.h"
#include "lbs/dataset.h"
#include "lbs/sharded_server.h"
#include "service/dedup.h"
#include "transport/sharded_transport.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {800, 500});

TEST(WireAllocations, CleanDistinctQueriesStayUnderTwelvePerQuery) {
  Schema schema;
  schema.AddColumn("category", AttrType::kString);
  Dataset d(kBox, schema);
  Rng rng(83);
  for (int i = 0; i < 20000; ++i) {
    d.Add(kBox.SamplePoint(rng), {std::string(i % 3 == 0 ? "a" : "b")});
  }
  ShardedServerOptions sopts{.num_shards = 4, .build_threads = 1};
  sopts.server.max_k = 5;
  const ShardedLbsServer server(&d, sopts);
  ShardedTransport sharded(&server);
  service::QueryDedupRegistry registry;
  service::DedupTransport wire(&sharded, &registry);
  constexpr int kQueries = 2000;
  std::vector<Vec2> queries;
  queries.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) queries.push_back(kBox.SamplePoint(rng));

  int clean = 0;
  size_t hits = 0;
  const uint64_t before = testing_alloc::g_allocations.load();
  for (const Vec2& q : queries) {
    const TransportReply reply = wire.Query(q, 5, nullptr);
    clean += reply.outcome == TransportOutcome::kOk;
    hits += reply.hits.size();
  }
  const uint64_t allocations = testing_alloc::g_allocations.load() - before;

  EXPECT_EQ(clean, kQueries);
  EXPECT_EQ(hits, 5u * kQueries);
  EXPECT_EQ(registry.Stats().hits, 0u);
  const double per_query = static_cast<double>(allocations) / kQueries;
  EXPECT_LE(per_query, 12.0) << allocations << " allocations";
  RecordProperty("allocations_per_query", std::to_string(per_query));
}

}  // namespace
}  // namespace lbsagg
