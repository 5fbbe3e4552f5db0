#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

TEST(History, RecordIsIdempotent) {
  History h;
  h.Record(7, {1, 2});
  h.Record(7, {1, 2});
  h.Record(7, {9, 9});  // static service: first position wins
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.Known(7));
  EXPECT_FALSE(h.Known(8));
  EXPECT_EQ(h.Position(7), Vec2(1, 2));
}

TEST(History, NearestOtherPositionsOrdersByDistance) {
  History h;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    h.Record(i, kBox.SamplePoint(rng));
  }
  const Vec2 probe{50, 50};
  const auto nearest = h.NearestOtherPositions(probe, -1, 10);
  ASSERT_EQ(nearest.size(), 10u);
  for (size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_LE(Distance(probe, nearest[i - 1]), Distance(probe, nearest[i]));
  }
  // No position in the full set beats the worst of the returned ones.
  const double worst = Distance(probe, nearest.back());
  int closer = 0;
  for (const auto& entry : h.Entries()) {
    if (Distance(probe, entry.second) < worst) ++closer;
  }
  EXPECT_LE(closer, 10);
}

TEST(History, NearestOtherPositionsLimitLargerThanSize) {
  History h;
  h.Record(1, {10, 10});
  h.Record(2, {20, 20});
  EXPECT_EQ(h.NearestOtherPositions({0, 0}, -1, 50).size(), 2u);
  EXPECT_EQ(h.NearestOtherPositions({0, 0}, 1, 50).size(), 1u);
}

// Linear reference for NearestOtherPositions: every admissible entry ranked
// by (squared distance, insertion order).
std::vector<Vec2> ReferenceNearest(const History& h, const Vec2& p,
                                   int excluded_id, size_t limit) {
  const std::vector<std::pair<int, Vec2>> entries = h.Entries();
  std::vector<std::tuple<double, size_t, Vec2>> ranked;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first == excluded_id) continue;
    ranked.emplace_back(SquaredDistance(p, entries[i].second), i,
                        entries[i].second);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) <
           std::tie(std::get<0>(b), std::get<1>(b));
  });
  std::vector<Vec2> out;
  for (size_t i = 0; i < std::min(limit, ranked.size()); ++i) {
    out.push_back(std::get<2>(ranked[i]));
  }
  return out;
}

// The kd-indexed prefix plus linear tail must agree with the linear
// reference exactly, on both sides of every index rebuild (the index
// appears at 128 entries and is rebuilt at 256 and 512). Positions sit on
// an integer grid and some repeat, so many candidates tie on distance and
// only insertion order separates them. The excluded id lies in the indexed
// prefix (the first entry), in the tail (the last entry, when there is a
// tail), or nowhere.
TEST(History, NearestOtherPositionsMatchesLinearReference) {
  for (const size_t size : {127u, 128u, 129u, 255u, 256u, 257u, 600u}) {
    History h;
    Rng rng(size);
    std::vector<Vec2> recorded;
    for (size_t i = 0; i < size; ++i) {
      Vec2 pos{static_cast<double>(rng.UniformInt(40)),
               static_cast<double>(rng.UniformInt(40))};
      if (i % 7 == 6) pos = recorded[rng.UniformInt(recorded.size())];
      recorded.push_back(pos);
      h.Record(1000 + static_cast<int>(i), pos);
    }
    ASSERT_EQ(h.size(), size);
    std::vector<Vec2> probes = {{20, 20}, {0, 0}, {39, 0}, {13.5, 27.25}};
    for (int i = 0; i < 4; ++i) probes.push_back(kBox.SamplePoint(rng) * 0.4);
    probes.push_back(recorded.front());
    probes.push_back(recorded.back());
    const int first_id = 1000;
    const int last_id = 1000 + static_cast<int>(size) - 1;
    for (const Vec2& probe : probes) {
      for (const int excluded : {first_id, last_id, -1, 7}) {
        for (const size_t limit : {size_t{0}, size_t{1}, size_t{32},
                                   size_t{64}, size + 5}) {
          const std::vector<Vec2> got =
              h.NearestOtherPositions(probe, excluded, limit);
          const std::vector<Vec2> want =
              ReferenceNearest(h, probe, excluded, limit);
          ASSERT_EQ(got.size(), want.size())
              << "size " << size << " probe " << probe << " excluded "
              << excluded << " limit " << limit;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].x, want[i].x)
                << "size " << size << " probe " << probe << " excluded "
                << excluded << " limit " << limit << " rank " << i;
            ASSERT_EQ(got[i].y, want[i].y)
                << "size " << size << " probe " << probe << " excluded "
                << excluded << " limit " << limit << " rank " << i;
          }
        }
      }
    }
  }
}

TEST(History, UpperBoundCellAreaShrinksWithKnowledge) {
  // λ_h from history bounds the true cell from above and tightens as more
  // tuples are recorded (§3.2.3).
  History h;
  const Vec2 focal{50, 50};
  EXPECT_DOUBLE_EQ(h.UpperBoundCellArea(0, focal, kBox, 1), kBox.Area());
  h.Record(1, {70, 50});
  const double one = h.UpperBoundCellArea(0, focal, kBox, 1);
  EXPECT_LT(one, kBox.Area());
  h.Record(2, {50, 70});
  h.Record(3, {30, 50});
  h.Record(4, {50, 30});
  const double many = h.UpperBoundCellArea(0, focal, kBox, 1);
  EXPECT_LT(many, one);
  // λ is non-decreasing in h.
  EXPECT_LE(many, h.UpperBoundCellArea(0, focal, kBox, 2) + 1e-9);
}

TEST(History, UpperBoundRespectsConstraintCap) {
  History h;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) h.Record(i, kBox.SamplePoint(rng));
  // Fewer constraints → looser (but still valid) bound.
  const double loose = h.UpperBoundCellArea(999, {50, 50}, kBox, 1, 4);
  const double tight = h.UpperBoundCellArea(999, {50, 50}, kBox, 1, 64);
  EXPECT_GE(loose, tight - 1e-9);
}

}  // namespace
}  // namespace lbsagg
