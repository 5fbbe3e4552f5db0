#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lbs/client.h"
#include "lbs/dataset.h"
#include "lbs/server.h"
#include "lbs/trilateration.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

Schema MakeSchema() {
  Schema s;
  s.AddColumn("name", AttrType::kString);
  s.AddColumn("score", AttrType::kDouble);
  s.AddColumn("flag", AttrType::kBool);
  return s;
}

Dataset MakeDataset(int n, uint64_t seed) {
  Dataset d(kBox, MakeSchema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    d.Add(kBox.SamplePoint(rng),
          {std::string(i % 3 == 0 ? "starbucks" : "local"),
           rng.Uniform(1.0, 5.0), rng.Bernoulli(0.5)});
  }
  return d;
}

TEST(Schema, ColumnLookup) {
  const Schema s = MakeSchema();
  EXPECT_EQ(s.num_columns(), 3);
  EXPECT_EQ(s.Require("score"), 1);
  EXPECT_FALSE(s.Find("missing").has_value());
  EXPECT_TRUE(s.type(2) == AttrType::kBool);
}

TEST(Schema, DuplicateColumnRejected) {
  Schema s;
  s.AddColumn("a", AttrType::kDouble);
  EXPECT_DEATH(s.AddColumn("a", AttrType::kBool), "duplicate column");
}

TEST(Dataset, TypeMismatchRejected) {
  Dataset d(kBox, MakeSchema());
  EXPECT_DEATH(d.Add({1, 1}, {2.0, std::string("x"), true}), "type mismatch");
}

TEST(Dataset, GroundTruthAggregates) {
  Dataset d(kBox, MakeSchema());
  d.Add({1, 1}, {std::string("a"), 2.0, true});
  d.Add({2, 2}, {std::string("b"), 3.0, false});
  d.Add({3, 3}, {std::string("a"), 5.0, true});
  EXPECT_DOUBLE_EQ(d.GroundTruthCount(), 3.0);
  const TupleFilter is_a = [](const Tuple& t) {
    return std::get<std::string>(t.values[0]) == "a";
  };
  EXPECT_DOUBLE_EQ(d.GroundTruthCount(is_a), 2.0);
  EXPECT_DOUBLE_EQ(
      d.GroundTruthSum(is_a,
                       [](const Tuple& t) { return std::get<double>(t.values[1]); }),
      7.0);
}

TEST(Dataset, JitterRemovesDuplicates) {
  Dataset d(kBox, MakeSchema());
  for (int i = 0; i < 5; ++i) {
    d.Add({50, 50}, {std::string("x"), 1.0, false});
  }
  Rng rng(1);
  const int moved = d.JitterDuplicates(rng, 1e-6);
  EXPECT_GE(moved, 4);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = i + 1; j < d.size(); ++j) {
      EXPECT_GT(Distance(d.tuple(i).pos, d.tuple(j).pos), 0.0);
    }
  }
}

TEST(Dataset, SubsampleKeepsRoughFraction) {
  const Dataset d = MakeDataset(2000, 11);
  Rng rng(13);
  const Dataset half = d.Subsample(0.5, rng);
  EXPECT_NEAR(static_cast<double>(half.size()), 1000.0, 100.0);
  EXPECT_EQ(half.tuple(0).id, 0);  // ids reassigned contiguously
}

TEST(Server, Top1IsNearestTuple) {
  const Dataset d = MakeDataset(100, 17);
  const LbsServer server(&d, {.max_k = 5});
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const auto hits = server.Query(q, 1);
    ASSERT_EQ(hits.size(), 1u);
    for (size_t i = 0; i < d.size(); ++i) {
      EXPECT_LE(hits[0].distance, Distance(q, d.tuple(i).pos) + 1e-12);
    }
  }
}

TEST(Server, RespectsMaxK) {
  const Dataset d = MakeDataset(100, 23);
  const LbsServer server(&d, {.max_k = 3});
  EXPECT_EQ(server.Query({50, 50}, 10).size(), 3u);
}

TEST(Server, MaxRadiusCanReturnEmpty) {
  Dataset d(kBox, MakeSchema());
  d.Add({10, 10}, {std::string("x"), 1.0, false});
  d.Add({12, 10}, {std::string("y"), 1.0, false});
  ServerOptions opts;
  opts.max_radius = 5.0;
  const LbsServer server(&d, opts);
  EXPECT_EQ(server.Query({90, 90}, 2).size(), 0u);
  EXPECT_EQ(server.Query({11, 10}, 2).size(), 2u);
}

TEST(Server, PassThroughFilterRestrictsResults) {
  const Dataset d = MakeDataset(300, 29);
  const LbsServer server(&d, {.max_k = 10});
  const TupleFilter starbucks = [](const Tuple& t) {
    return std::get<std::string>(t.values[0]) == "starbucks";
  };
  const auto hits = server.Query({50, 50}, 10, starbucks);
  EXPECT_EQ(hits.size(), 10u);
  for (const ServerHit& h : hits) {
    EXPECT_EQ(std::get<std::string>(d.tuple(h.tuple_id).values[0]),
              "starbucks");
  }
}

TEST(Server, ObfuscationMovesPositionsDeterministically) {
  const Dataset d = MakeDataset(50, 31);
  ServerOptions opts;
  opts.obfuscation_radius = 2.0;
  const LbsServer s1(&d, opts);
  const LbsServer s2(&d, opts);
  int moved = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    const int id = static_cast<int>(i);
    EXPECT_EQ(s1.EffectivePosition(id), s2.EffectivePosition(id));
    const double shift = Distance(s1.EffectivePosition(id), d.tuple(id).pos);
    EXPECT_LE(shift, 2.0 + 1e-9);
    if (shift > 0) ++moved;
  }
  EXPECT_EQ(moved, 50);
}

TEST(Server, ProminenceCanOutrankDistance) {
  Dataset d(kBox, MakeSchema());
  d.Add({50, 50}, {std::string("near"), 0.0, false});   // score 0
  d.Add({52, 50}, {std::string("famous"), 10.0, false});  // score 10
  ServerOptions opts;
  opts.ranking = RankingMode::kProminence;
  opts.prominence_column = "score";
  opts.prominence_weight = 1.0;
  opts.max_radius = 100.0;
  const LbsServer server(&d, opts);
  const auto hits = server.Query({50.5, 50}, 2);
  ASSERT_EQ(hits.size(), 2u);
  // famous: dist 1.5 - 10 = -8.5 beats near: 0.5 - 0 = 0.5.
  EXPECT_EQ(hits[0].tuple_id, 1);
}

TEST(Server, BruteForceBackendMatchesKdTreeBackend) {
  const Dataset d = MakeDataset(400, 59);
  ServerOptions kd_opts;
  kd_opts.max_k = 5;
  ServerOptions brute_opts = kd_opts;
  brute_opts.index_backend = IndexBackend::kBruteForce;
  const LbsServer kd(&d, kd_opts);
  const LbsServer brute(&d, brute_opts);
  Rng rng(61);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const auto a = kd.Query(q, 5);
    const auto b = brute.Query(q, 5);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].tuple_id, b[i].tuple_id);
      EXPECT_EQ(a[i].distance, b[i].distance);  // bit for bit
    }
  }
}

TEST(Client, QueryCountingAndBudget) {
  const Dataset d = MakeDataset(100, 37);
  const LbsServer server(&d, {.max_k = 5});
  LrClient client(&server, {.k = 3, .budget = 10});
  client.EnableQueryLog();
  EXPECT_TRUE(client.HasBudget(10));
  for (int i = 0; i < 10; ++i) client.Query({50, 50});
  EXPECT_EQ(client.queries_used(), 10u);  // repeats are charged too
  EXPECT_EQ(client.query_log().size(), 10u);
  EXPECT_FALSE(client.HasBudget());
  client.ResetQueryCount();
  EXPECT_EQ(client.queries_used(), 0u);
  EXPECT_TRUE(client.query_log().empty());
  EXPECT_TRUE(client.HasBudget());
}

TEST(Client, QueryLogRecordsLocationsWhenEnabled) {
  const Dataset d = MakeDataset(50, 97);
  const LbsServer server(&d, {.max_k = 3});
  LrClient client(&server, {.k = 3});
  client.Query({10, 20});
  EXPECT_TRUE(client.query_log().empty());  // off by default
  client.EnableQueryLog();
  client.Query({30, 40});
  client.Query({50, 60});
  ASSERT_EQ(client.query_log().size(), 2u);
  EXPECT_EQ(client.query_log()[0], Vec2(30, 40));
  EXPECT_EQ(client.query_log()[1], Vec2(50, 60));
}

TEST(Client, LrReturnsLocationsLnrDoesNot) {
  const Dataset d = MakeDataset(100, 41);
  const LbsServer server(&d, {.max_k = 5});
  LrClient lr(&server, {.k = 3});
  LnrClient lnr(&server, {.k = 3});
  const auto lr_items = lr.Query({20, 30});
  const auto lnr_ids = lnr.Query({20, 30});
  ASSERT_EQ(lr_items.size(), 3u);
  ASSERT_EQ(lnr_ids.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lr_items[i].id, lnr_ids[i]);  // same ranking
    EXPECT_EQ(lr_items[i].location, d.tuple(lr_items[i].id).pos);
  }
}

TEST(Client, KClampedToServerMax) {
  const Dataset d = MakeDataset(100, 43);
  const LbsServer server(&d, {.max_k = 2});
  LrClient client(&server, {.k = 50});
  EXPECT_EQ(client.k(), 2);
  EXPECT_EQ(client.Query({10, 10}).size(), 2u);
}

TEST(Client, PassThroughFilterOnClient) {
  const Dataset d = MakeDataset(300, 47);
  const LbsServer server(&d, {.max_k = 5});
  LnrClient client(&server, {.k = 5});
  const int name_col = client.schema().Require("name");
  client.SetPassThroughFilter([](const Tuple& t) {
    return std::get<std::string>(t.values[0]) == "starbucks";
  });
  for (int id : client.Query({40, 60})) {
    EXPECT_EQ(std::get<std::string>(client.Attribute(id, name_col)),
              "starbucks");
  }
}

TEST(Client, AttributeAccessors) {
  const Dataset d = MakeDataset(10, 53);
  const LbsServer server(&d, {.max_k = 1});
  LrClient client(&server, {.k = 1});
  const int score = client.schema().Require("score");
  EXPECT_GT(client.NumericAttribute(0, score), 0.0);
  EXPECT_DEATH(client.NumericAttribute(0, client.schema().Require("name")),
               "not numeric");
}

TEST(Trilateration, ExactRecovery) {
  const Vec2 target{37.0, 59.0};
  const Vec2 centers[3] = {{0, 0}, {100, 0}, {0, 100}};
  const double dists[3] = {Distance(centers[0], target),
                           Distance(centers[1], target),
                           Distance(centers[2], target)};
  const auto p = Trilaterate(centers, dists);
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, target.x, 1e-9);
  EXPECT_NEAR(p->y, target.y, 1e-9);
}

TEST(Trilateration, CollinearCentersRejected) {
  const Vec2 centers[3] = {{0, 0}, {1, 1}, {2, 2}};
  const double dists[3] = {1, 1, 1};
  EXPECT_FALSE(Trilaterate(centers, dists).has_value());
}

TEST(TrilaterationClient, RecoversAllReturnedLocations) {
  const Dataset d = MakeDataset(200, 71);
  const LbsServer server(&d, {.max_k = 10});
  TrilaterationClient client(&server, {.k = 5});
  Rng rng(73);
  for (int trial = 0; trial < 30; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    for (const LrClient::Item& item : client.Query(q)) {
      EXPECT_NEAR(Distance(item.location, d.tuple(item.id).pos), 0.0, 1e-6)
          << item.id;
    }
  }
  EXPECT_GT(client.inferred_positions(), 20u);
}

TEST(TrilaterationClient, CachesPositionsAcrossQueries) {
  const Dataset d = MakeDataset(50, 79);
  const LbsServer server(&d, {.max_k = 5});
  TrilaterationClient client(&server, {.k = 3});
  client.Query({50, 50});
  const uint64_t first = client.queries_used();
  EXPECT_GT(first, 1u);  // probes beyond the main query
  client.Query({50, 50});
  // Same tuples: only the main query is spent the second time.
  EXPECT_EQ(client.queries_used(), first + 1);
}

TEST(TrilaterationClient, BehavesLikeLrClientThroughBasePointer) {
  const Dataset d = MakeDataset(100, 83);
  const LbsServer server(&d, {.max_k = 5});
  TrilaterationClient tri(&server, {.k = 3});
  LrClient* as_lr = &tri;
  const auto items = as_lr->Query({25, 75});
  ASSERT_FALSE(items.empty());
  LrClient plain(&server, {.k = 3});
  const auto expected = plain.Query({25, 75});
  ASSERT_EQ(items.size(), expected.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].id, expected[i].id);
    EXPECT_NEAR(Distance(items[i].location, expected[i].location), 0.0, 1e-6);
  }
}

TEST(Client, MaxRadiusAccessorReflectsServer) {
  const Dataset d = MakeDataset(20, 89);
  ServerOptions sopts;
  sopts.max_radius = 42.0;
  const LbsServer server(&d, sopts);
  LrClient client(&server, {.k = 1});
  EXPECT_DOUBLE_EQ(client.max_radius(), 42.0);
  const LbsServer unlimited(&d, {});
  LrClient client2(&unlimited, {.k = 1});
  EXPECT_TRUE(std::isinf(client2.max_radius()));
}

TEST(Trilateration, LocateThroughDistanceClient) {
  const Dataset d = MakeDataset(200, 61);
  const LbsServer server(&d, {.max_k = 10});
  DistanceClient client(&server, {.k = 10});
  Rng rng(67);
  int located = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const auto items = client.Query(q);
    ASSERT_FALSE(items.empty());
    const int id = items.front().id;
    const auto pos = LocateByTrilateration(client, id, q);
    if (!pos.has_value()) continue;
    ++located;
    EXPECT_NEAR(Distance(*pos, d.tuple(id).pos), 0.0, 1e-6);
  }
  EXPECT_GE(located, 20);  // §2.1: 3 queries suffice nearly always
}

TEST(Client, DistanceRankedReflectsRankingMode) {
  const Dataset d = MakeDataset(50, 9);
  const LbsServer plain(&d, {.max_k = 5});
  LrClient a(&plain, {.k = 5});
  EXPECT_TRUE(a.distance_ranked());

  ServerOptions prominent;
  prominent.max_k = 5;
  prominent.max_radius = 50.0;  // prominence ranking requires finite d_max
  prominent.ranking = RankingMode::kProminence;
  prominent.prominence_column = "score";
  prominent.prominence_weight = 10.0;
  const LbsServer ranked(&d, prominent);
  LrClient b(&ranked, {.k = 5});
  EXPECT_FALSE(b.distance_ranked());
}

}  // namespace
}  // namespace lbsagg
