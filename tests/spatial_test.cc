#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "geometry/loc_key.h"
#include "obs/metrics.h"
#include "spatial/brute_force.h"
#include "spatial/kdtree.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {1000, 1000});

std::vector<Vec2> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) pts.push_back(kBox.SamplePoint(rng));
  return pts;
}

TEST(KdTree, EmptyTreeReturnsNothing) {
  const KdTree tree(std::vector<Vec2>{});
  EXPECT_TRUE(tree.Nearest({0, 0}, 3).empty());
}

TEST(KdTree, SinglePoint) {
  const KdTree tree({{5, 5}});
  const auto r = tree.Nearest({0, 0}, 3);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index, 0);
  EXPECT_NEAR(r[0].distance, std::sqrt(50.0), 1e-12);
}

TEST(KdTree, ResultsSortedByDistance) {
  const auto pts = RandomPoints(200, 301);
  const KdTree tree(pts);
  Rng rng(303);
  for (int trial = 0; trial < 50; ++trial) {
    const auto r = tree.Nearest(kBox.SamplePoint(rng), 10);
    ASSERT_EQ(r.size(), 10u);
    for (size_t i = 1; i < r.size(); ++i) {
      EXPECT_LE(r[i - 1].distance, r[i].distance);
    }
  }
}

// Property sweep: k-d tree ≡ brute force for many k values.
class KdTreeEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeEquivalenceTest, MatchesBruteForce) {
  const int k = GetParam();
  const auto pts = RandomPoints(300, 307);
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  Rng rng(311);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const auto a = tree.Nearest(q, k);
    const auto b = brute.Nearest(q, k);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index) << "k=" << k << " i=" << i;
      EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, KdTreeEquivalenceTest,
                         ::testing::Values(1, 2, 5, 10, 50, 301));

TEST(KdTree, FilteredSearchMatchesBruteForce) {
  const auto pts = RandomPoints(300, 313);
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  const IndexFilter odd_only = [](int i) { return i % 2 == 1; };
  Rng rng(317);
  for (int trial = 0; trial < 100; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const auto a = tree.NearestFiltered(q, 7, odd_only);
    const auto b = brute.NearestFiltered(q, 7, odd_only);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index);
      EXPECT_EQ(a[i].index % 2, 1);
    }
  }
}

TEST(KdTree, FilterRejectingEverythingGivesEmpty) {
  const auto pts = RandomPoints(50, 319);
  const KdTree tree(pts);
  EXPECT_TRUE(
      tree.NearestFiltered({1, 1}, 5, [](int) { return false; }).empty());
}

TEST(KdTree, WithinRadiusMatchesLinearScan) {
  const auto pts = RandomPoints(400, 323);
  const KdTree tree(pts);
  Rng rng(327);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 q = kBox.SamplePoint(rng);
    const double radius = rng.Uniform(10.0, 200.0);
    auto got = tree.WithinRadius(q, radius);
    std::vector<int> got_ids;
    for (const Neighbor& n : got) {
      got_ids.push_back(n.index);
      EXPECT_LE(n.distance, radius);
    }
    std::sort(got_ids.begin(), got_ids.end());
    std::vector<int> want_ids;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (Distance(q, pts[i]) <= radius) {
        want_ids.push_back(static_cast<int>(i));
      }
    }
    EXPECT_EQ(got_ids, want_ids);
  }
}

TEST(KdTree, KLargerThanDatasetReturnsAll) {
  const auto pts = RandomPoints(10, 331);
  const KdTree tree(pts);
  const auto r = tree.Nearest({500, 500}, 100);
  EXPECT_EQ(r.size(), 10u);
}

TEST(KdTree, DuplicateCoordinatesHandled) {
  // Points with identical x (stresses the splitting logic).
  std::vector<Vec2> pts;
  for (int i = 0; i < 50; ++i) pts.push_back({5.0, static_cast<double>(i)});
  const KdTree tree(pts);
  const auto r = tree.Nearest({5.0, 10.2}, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].index, 10);
}

// Pins the traversal's work, not only its answers: a search that pruned
// less would still return the right neighbors. The tree mixes random points
// with coincident ones, some queries sit exactly on a duplicated point, and
// every search kind runs: both kNN candidate stores (k <= 16 and larger),
// filtered, and radius. A change that moves these counts changes how much
// the search prunes.
TEST(KdTree, WorkCountersPinned) {
#ifdef LBSAGG_OBS_DISABLED
  GTEST_SKIP() << "work counters are compiled out";
#endif
  std::vector<Vec2> pts = RandomPoints(2000, 337);
  for (int i = 0; i < 200; ++i) pts.push_back(pts[7 * i]);
  KdTree tree(pts);
  obs::MetricsRegistry registry;
  tree.EnableStats(&registry);
  Rng rng(347);
  std::vector<Vec2> queries;
  for (int i = 0; i < 100; ++i) queries.push_back(kBox.SamplePoint(rng));
  for (int i = 0; i < 20; ++i) queries.push_back(pts[7 * i]);
  const IndexFilter every_third = [](int i) { return i % 3 == 0; };
  for (const Vec2& q : queries) {
    for (int k : {1, 5, 16, 17, 65}) tree.Nearest(q, k);
    tree.NearestFiltered(q, 5, every_third);
    tree.NearestFiltered(q, 33, every_third);
    tree.WithinRadius(q, 40.0);
  }
  const auto value = [&registry](const char* name) {
    return registry.GetCounter(name)->Value();
  };
  EXPECT_EQ(value("spatial.kdtree.searches"), 960u);
  EXPECT_EQ(value("spatial.kdtree.nodes_visited"), 18555u);
  EXPECT_EQ(value("spatial.kdtree.leaves_scanned"), 9709u);
  EXPECT_EQ(value("spatial.kdtree.points_tested"), 83546u);
}

// The ids a radius covering every point returns, hashed in order: the
// walk's leaf order, so the hash moves with any node's split or any leaf's
// contents or order.
uint64_t LeafOrderHash(const KdTree& tree, size_t n) {
  const std::vector<Neighbor> all = tree.WithinRadius({317.5, 611.25}, 5000.0);
  EXPECT_EQ(all.size(), n);
  uint64_t h = 0;
  for (const Neighbor& nb : all) {
    h = SplitMix64(h ^ static_cast<uint64_t>(nb.index));
  }
  return h;
}

// Pins the tree's layout node for node, in every build (the work counters
// above compile out with the instrumentation). The lattice repeats every x
// and every y and stacks coincident points on it, so most comparisons in
// the median partition are ties: a comparator that broke them by id, or a
// median taken at another slot, lays out other leaves. Values were
// captured from the id-permutation build the record build replaced.
TEST(KdTree, LayoutPinned) {
  std::vector<Vec2> lattice;
  for (int i = 0; i < 170; ++i) {
    for (int j = 0; j < 170; ++j) lattice.push_back({3.0 * i, 2.0 * j + 100});
  }
  for (int i = 0; i < 1000; ++i) {
    const Vec2 twin = lattice[29 * i];
    lattice.push_back(twin);
  }
  EXPECT_EQ(LeafOrderHash(KdTree(lattice), lattice.size()),
            0x5e21c408f754508bull);

  Rng rng(353);
  const std::vector<ClusterSpec> clusters =
      MakeZipfClusters(8, kBox, 1.1, 20.0, rng);
  const std::vector<Vec2> clustered =
      GenerateClustered(10000, kBox, clusters, 0.1, rng);
  EXPECT_EQ(LeafOrderHash(KdTree(clustered), clustered.size()),
            0x7d29fab3cffc7950ull);
}

TEST(BruteForce, TieBreakByIndex) {
  // Two equidistant points: the smaller index wins, deterministically.
  const BruteForceIndex idx({{0, 1}, {0, -1}});
  const auto r = idx.Nearest({0, 0}, 1);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].index, 0);
}

TEST(KdTree, TieBreakMatchesBruteForce) {
  // Symmetric grid makes exact ties; both indexes must break them the same
  // way (by index) so the simulated LBS is deterministic.
  std::vector<Vec2> pts;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) pts.push_back({i * 2.0, j * 2.0});
  }
  const KdTree tree(pts);
  const BruteForceIndex brute(pts);
  const Vec2 q{3.0, 3.0};  // equidistant from 4 grid points
  const auto a = tree.Nearest(q, 4);
  const auto b = brute.Nearest(q, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].index, b[i].index);
}

}  // namespace
}  // namespace lbsagg
