// Randomized equivalence of the two SpatialIndex implementations: KdTree
// must return *bit-identical* results to the BruteForceIndex oracle — same
// indices, same exact distance doubles — for Nearest, NearestFiltered, and
// WithinRadius. The candidate ordering contract in spatial_index.h (rank by
// the exact (squared distance, index) total order) makes this well-defined
// even under distance ties, which the duplicate-point cases below force; the
// total order is additionally asserted directly on every Nearest result, so
// the tree cannot pass by agreeing with an unordered oracle. The LBS server
// relies on this to make the index backend invisible through the interface.
// Every kd-tree search runs one traversal; the k values used here cover
// both of its kNN candidate stores (the sorted insertion array for k <= 16,
// k = 1 included, and the 2k buffer above it), and the radius cases its
// radius collector. Each result's d2, which the LBS server's shard gather
// ranks by, is bit-equal across the two backends, equals SquaredDistance
// from q to the returned point, and has `distance` as its sqrt.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/box.h"
#include "spatial/backend.h"
#include "spatial/brute_force.h"
#include "spatial/kdtree.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {1000, 1000});

std::vector<Vec2> RandomPointsWithDuplicates(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    // ~20% duplicates of an earlier point: forces exact distance ties so
    // the (distance, index) tie-break order is actually exercised.
    if (i > 0 && rng.Uniform01() < 0.2) {
      pts.push_back(pts[rng.UniformInt(static_cast<uint64_t>(i))]);
    } else {
      pts.push_back(kBox.SamplePoint(rng));
    }
  }
  return pts;
}

// Zipf-ish city clusters: heavy spatial skew, the shape of the benchmark's
// city-clustered datasets.
std::vector<Vec2> ClusteredPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> centers;
  for (int c = 0; c < 12; ++c) centers.push_back(kBox.SamplePoint(rng));
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    const Vec2& c = centers[i % 3 == 0 ? rng.UniformInt(12) : 0];
    const double spread = 5.0 + 20.0 * rng.Uniform01();
    pts.push_back(kBox.Clamp(c + Vec2{rng.Uniform(-spread, spread),
                                      rng.Uniform(-spread, spread)}));
  }
  return pts;
}

// Asserts the documented result contract of SpatialIndex::Nearest /
// NearestFiltered: ascending (distance, index) — i.e. equidistant neighbors
// ordered by ascending point id, identically on every backend.
void ExpectTotalOrder(const std::vector<Neighbor>& r, const char* label) {
  for (size_t i = 1; i < r.size(); ++i) {
    const bool ordered =
        r[i - 1].distance < r[i].distance ||
        (r[i - 1].distance == r[i].distance && r[i - 1].index < r[i].index);
    EXPECT_TRUE(ordered) << label << ": rank " << i - 1 << " (d="
                         << r[i - 1].distance << ", id=" << r[i - 1].index
                         << ") vs rank " << i << " (d=" << r[i].distance
                         << ", id=" << r[i].index << ")";
  }
}

// `distance` is the sqrt of the carried d2, bit for bit.
void ExpectSqrtOfD2(const std::vector<Neighbor>& r, const char* label) {
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].distance, std::sqrt(r[i].d2)) << label << " rank " << i;
  }
}

// The carried d2 is SquaredDistance(q, p) for the returned point p.
void ExpectExactD2(const std::vector<Neighbor>& r,
                   const std::vector<Vec2>& pts, const Vec2& q,
                   const char* label) {
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].d2, SquaredDistance(q, pts[r[i].index]))
        << label << " rank " << i;
  }
}

void ExpectIdentical(const std::vector<Neighbor>& a,
                     const std::vector<Neighbor>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << label << " rank " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a[i].distance, b[i].distance) << label << " rank " << i;
    EXPECT_EQ(a[i].d2, b[i].d2) << label << " rank " << i;
  }
  ExpectTotalOrder(a, label);
  ExpectSqrtOfD2(a, label);
  ExpectSqrtOfD2(b, label);
}

// WithinRadius is unsorted by contract; compare as sorted sets.
void ExpectSameSet(std::vector<Neighbor> a, std::vector<Neighbor> b,
                   const char* label) {
  const auto by_index = [](const Neighbor& x, const Neighbor& y) {
    return x.index < y.index;
  };
  std::sort(a.begin(), a.end(), by_index);
  std::sort(b.begin(), b.end(), by_index);
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << label << " rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << label << " rank " << i;
    EXPECT_EQ(a[i].d2, b[i].d2) << label << " rank " << i;
  }
  ExpectSqrtOfD2(a, label);
  ExpectSqrtOfD2(b, label);
}

// The k values cover both KdTree kNN candidate stores (sorted insertion for
// k <= leaf size 16, buffered compaction beyond) at their edges, plus k > n
// truncation.
const int kTestKs[] = {1, 2, 7, 16, 17, 50, 400};

TEST(SpatialEquivalence, KdTreeMatchesBruteForceRandomized) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    const int n = 50 + static_cast<int>(seed) * 71;
    const auto pts = RandomPointsWithDuplicates(n, seed);
    const KdTree kd(pts);
    const BruteForceIndex brute(pts);
    ASSERT_EQ(kd.size(), pts.size());

    Rng rng(100 + seed);
    for (int trial = 0; trial < 40; ++trial) {
      // Mix of uniform queries and queries at (or near) data points, where
      // zero distances and ties concentrate.
      Vec2 q = kBox.SamplePoint(rng);
      if (trial % 3 == 1) q = pts[rng.UniformInt(static_cast<uint64_t>(n))];
      if (trial % 3 == 2) q = pts[rng.UniformInt(static_cast<uint64_t>(n))] + Vec2{1e-7, -1e-7};

      for (const int k : kTestKs) {
        const auto want = brute.Nearest(q, k);
        ExpectTotalOrder(want, "brute Nearest");
        ExpectExactD2(want, pts, q, "brute Nearest");
        ExpectIdentical(kd.Nearest(q, k), want, "kd Nearest");
      }

      const IndexFilter filter = [](int id) { return (id & 3) != 0; };
      for (const int k : {1, 7, 30}) {
        const auto want = brute.NearestFiltered(q, k, filter);
        ExpectExactD2(want, pts, q, "brute NearestFiltered");
        ExpectIdentical(kd.NearestFiltered(q, k, filter), want,
                        "kd NearestFiltered");
      }

      // Sparse-accepting filters: few tuples pass, so filtered searches
      // must keep expanding well past the seed leaves (and, at 1/64, often
      // exhaust the index without filling k).
      for (const int modulus : {16, 64}) {
        const IndexFilter sparse = [modulus](int id) {
          return id % modulus == 1;
        };
        for (const int k : {1, 5}) {
          ExpectIdentical(kd.NearestFiltered(q, k, sparse),
                          brute.NearestFiltered(q, k, sparse),
                          "kd sparse filter");
        }
      }

      // Null filter must behave exactly like Nearest.
      ExpectIdentical(kd.NearestFiltered(q, 9, nullptr), brute.Nearest(q, 9),
                      "kd null filter");

      for (const double radius : {0.0, 15.0, 120.0, 2000.0}) {
        const auto want = brute.WithinRadius(q, radius);
        ExpectExactD2(want, pts, q, "brute WithinRadius");
        ExpectSameSet(kd.WithinRadius(q, radius), want, "kd WithinRadius");
      }
    }
  }
}

// The benchmark's servers index 2x10^4 city-clustered points; the same size
// and shape here, where dense clusters sit beside empty space.
TEST(SpatialEquivalence, ClusteredAtBenchmarkScale) {
  const int n = 20000;
  const auto pts = ClusteredPoints(n, 11);
  const KdTree kd(pts);
  const BruteForceIndex brute(pts);
  Rng rng(12);
  for (int trial = 0; trial < 60; ++trial) {
    Vec2 q = kBox.SamplePoint(rng);
    if (trial % 2 == 1) q = pts[rng.UniformInt(static_cast<uint64_t>(n))];
    for (const int k : {1, 10, 50}) {
      ExpectIdentical(kd.Nearest(q, k), brute.Nearest(q, k),
                      "clustered Nearest");
    }
    ExpectSameSet(kd.WithinRadius(q, 25.0), brute.WithinRadius(q, 25.0),
                  "clustered WithinRadius");
  }
}

// Every point in one corner: a query from the far corner must cross the
// whole empty box before it meets a candidate.
TEST(SpatialEquivalence, CornerClusterFarQuery) {
  std::vector<Vec2> pts;
  Rng rng(407);
  for (int i = 0; i < 100; ++i) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const KdTree kd(pts);
  const BruteForceIndex brute(pts);
  const Vec2 far_query{990, 990};
  for (const int k : {1, 5, 100}) {
    ExpectIdentical(kd.Nearest(far_query, k), brute.Nearest(far_query, k),
                    "corner cluster far query");
  }
}

TEST(SpatialEquivalence, AllPointsCoincident) {
  const std::vector<Vec2> pts(37, Vec2{500, 500});
  const KdTree kd(pts);
  const BruteForceIndex brute(pts);
  for (const int k : kTestKs) {
    // Every distance ties; order must fall back to index order identically.
    const auto want = brute.Nearest({400, 400}, k);
    const auto got = kd.Nearest({400, 400}, k);
    ExpectIdentical(got, want, "coincident Nearest");
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, static_cast<int>(i));
    }
  }
}

// WithinRadius is boundary-inclusive: points at *exactly* `radius` must be
// returned by every backend. Axis-aligned offsets keep the squared distance
// arithmetic exact, so "exactly" means bit-exactly, not approximately.
TEST(SpatialEquivalence, WithinRadiusBoundaryInclusive) {
  const Vec2 q{512, 512};
  const double radius = 32.0;  // power of two: q ± radius is exact
  std::vector<Vec2> pts = {
      {q.x + radius, q.y},  // exactly at radius, +x
      {q.x - radius, q.y},  // exactly at radius, -x
      {q.x, q.y + radius},  // exactly at radius, +y
      {q.x, q.y - radius},  // exactly at radius, -y
      q,                    // distance 0
      {q.x + radius + 1e-9, q.y},  // just outside
      {q.x + radius - 1e-9, q.y},  // just inside
      {q.x + 900, q.y + 900},      // far away
  };
  Rng rng(9);
  for (int i = 0; i < 40; ++i) pts.push_back(kBox.SamplePoint(rng));

  const KdTree kd(pts);
  const BruteForceIndex brute(pts);

  const auto want = brute.WithinRadius(q, radius);
  // The oracle itself must include the four boundary points and the center.
  std::vector<int> got_ids;
  for (const Neighbor& nb : want) got_ids.push_back(nb.index);
  std::sort(got_ids.begin(), got_ids.end());
  for (int id : {0, 1, 2, 3, 4}) {
    EXPECT_TRUE(std::binary_search(got_ids.begin(), got_ids.end(), id))
        << "boundary point " << id << " missing from the oracle";
  }
  EXPECT_FALSE(std::binary_search(got_ids.begin(), got_ids.end(), 5));

  ExpectSameSet(kd.WithinRadius(q, radius), want, "kd boundary");

  // Nearest at k = count-of-ties must break the 4-way distance tie by id.
  for (const int k : {4, 5, 6}) {
    ExpectIdentical(kd.Nearest(q, k), brute.Nearest(q, k), "kd boundary tie");
  }
}

// A capped search keeps the k best points with d2 <= max_d2 (inclusive).
// On lattice points with duplicates, exact d2 ties sit at every cap drawn
// from a neighbor's d2, so the tree must match the capped oracle at, and
// one ulp below, each such cap, through both candidate stores; the oracle
// itself must keep exactly its uncapped page's points within the cap.
TEST(SpatialEquivalence, CappedSearchMatchesCappedOracle) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const IndexFilter every_other = [](int id) { return id % 2 == 0; };
  for (const uint64_t seed : {5u, 6u, 7u}) {
    Rng rng(seed);
    std::vector<Vec2> pts;
    for (int i = 0; i < 700; ++i) {
      pts.push_back({25.0 * rng.UniformInt(21), 25.0 * rng.UniformInt(21)});
    }
    const KdTree kd(pts);
    const BruteForceIndex brute(pts);
    for (int trial = 0; trial < 40; ++trial) {
      const Vec2 q = trial % 2 == 0
                         ? Vec2{25.0 * rng.UniformInt(21),
                                25.0 * rng.UniformInt(21)}
                         : kBox.SamplePoint(rng) * 0.5;
      for (const int k : {1, 5, 16, 17, 65}) {
        for (const IndexFilter& filter : {IndexFilter{}, every_other}) {
          const std::vector<Neighbor> wide =
              brute.NearestFiltered(q, k + 3, filter);
          std::vector<double> caps = {kInf, 0.0};
          for (const int j : {0, k / 2, k - 1, k + 2}) {
            if (j < static_cast<int>(wide.size())) {
              caps.push_back(SquaredDistance(q, pts[wide[j].index]));
            }
          }
          for (const double cap : std::vector<double>(caps)) {
            caps.push_back(std::nextafter(cap, -kInf));
          }
          const std::vector<Neighbor> page =
              brute.NearestFiltered(q, k, filter);
          for (const double cap : caps) {
            std::vector<Neighbor> within;
            for (const Neighbor& nb : page) {
              if (SquaredDistance(q, pts[nb.index]) <= cap) {
                within.push_back(nb);
              }
            }
            const std::vector<Neighbor> want =
                brute.NearestFiltered(q, k, filter, cap);
            ExpectExactD2(want, pts, q, "capped oracle");
            ExpectIdentical(want, within, "capped oracle");
            ExpectIdentical(kd.NearestFiltered(q, k, filter, cap), want,
                            "kd capped");
          }
        }
      }
    }
  }
}

// The factory builds both backends behind the enum used by ServerOptions;
// spot-check each against the oracle through the interface.
TEST(SpatialEquivalence, FactoryBackendsAgree) {
  const auto pts = RandomPointsWithDuplicates(300, 77);
  const BruteForceIndex brute(pts);
  Rng rng(78);
  for (const SpatialBackend backend :
       {SpatialBackend::kKdTree, SpatialBackend::kBruteForce}) {
    const auto index = MakeSpatialIndex(backend, pts);
    ASSERT_NE(index, nullptr);
    ASSERT_EQ(index->size(), pts.size());
    for (int trial = 0; trial < 10; ++trial) {
      const Vec2 q = kBox.SamplePoint(rng);
      ExpectIdentical(index->Nearest(q, 8), brute.Nearest(q, 8), "factory");
    }
  }
}

}  // namespace
}  // namespace lbsagg
