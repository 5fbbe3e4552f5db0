#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "geometry/topk_region.h"
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

// Every limit a caller passes (the disc's 2, the cell seed's 32, the
// bound seed's 64), one past the inline candidate buffer, and past the
// size.
std::vector<size_t> LimitsFor(size_t size) {
  return {0, 1, 2, 32, History::kBoundSeedSize, History::kBoundSeedSize + 1,
          size + 5};
}

// NearestOtherPositions agrees with the linear reference exactly at every
// probe and limit, excluding the first, a middle or the last recorded id,
// an unknown id, or nobody.
void ExpectMatchesReference(const History& h, const std::vector<Vec2>& probes,
                            const std::string& label) {
  const std::vector<std::pair<int, Vec2>> entries = h.Entries();
  const int excludes[] = {entries.front().first,
                          entries[entries.size() / 2].first,
                          entries.back().first, -7, -1};
  for (const Vec2& probe : probes) {
    for (const int excluded : excludes) {
      for (const size_t limit : LimitsFor(h.size())) {
        const std::vector<Vec2> got =
            h.NearestOtherPositions(probe, excluded, limit);
        const std::vector<Vec2> want =
            ReferenceNearest(h, probe, excluded, limit);
        ASSERT_EQ(got.size(), want.size())
            << label << " probe " << probe << " excluded " << excluded
            << " limit " << limit;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].x, want[i].x)
              << label << " probe " << probe << " excluded " << excluded
              << " limit " << limit << " rank " << i;
          ASSERT_EQ(got[i].y, want[i].y)
              << label << " probe " << probe << " excluded " << excluded
              << " limit " << limit << " rank " << i;
        }
      }
    }
  }
}

// Probes around recorded positions: fixed points, box samples, the first
// and last recorded positions, and one just beside the last.
std::vector<Vec2> ProbesFor(const std::vector<Vec2>& recorded, Rng& rng) {
  std::vector<Vec2> probes = {{20, 20}, {0, 0}, {39, 0}, {13.5, 27.25}};
  for (int i = 0; i < 4; ++i) probes.push_back(kBox.SamplePoint(rng) * 0.4);
  probes.push_back(recorded.front());
  probes.push_back(recorded.back());
  probes.push_back(recorded.back() + Vec2{0.25, -0.5});
  return probes;
}

// Insertion orders that are hard for a tree grown by insertion, each
// recorded with ids 1000, 1001, ...
struct InsertionOrder {
  std::string name;
  std::vector<Vec2> points;
};

std::vector<InsertionOrder> HardInsertionOrders() {
  std::vector<InsertionOrder> orders;
  Rng rng(17);
  // Positions on an integer grid, every seventh a repeat: many candidates
  // tie on distance and only insertion order separates them. Sizes around
  // the id table's growth points.
  for (const size_t size : {1u, 2u, 9u, 17u, 127u, 600u}) {
    InsertionOrder grid{"grid" + std::to_string(size), {}};
    for (size_t i = 0; i < size; ++i) {
      Vec2 pos{static_cast<double>(rng.UniformInt(40)),
               static_cast<double>(rng.UniformInt(40))};
      if (i % 7 == 6) pos = grid.points[rng.UniformInt(grid.points.size())];
      grid.points.push_back(pos);
    }
    orders.push_back(std::move(grid));
  }
  InsertionOrder by_x{"sorted-by-x", {}};
  for (int i = 0; i < 1000; ++i) by_x.points.push_back(kBox.SamplePoint(rng));
  InsertionOrder by_y = by_x;
  by_y.name = "sorted-by-y";
  std::sort(by_x.points.begin(), by_x.points.end(),
            [](const Vec2& a, const Vec2& b) { return a.x < b.x; });
  std::sort(by_y.points.begin(), by_y.points.end(),
            [](const Vec2& a, const Vec2& b) { return a.y < b.y; });
  orders.push_back(std::move(by_x));
  orders.push_back(std::move(by_y));
  // One line, in order along it: every insertion descends the same side,
  // a chain 2,000 deep.
  InsertionOrder line{"one-line", {}};
  for (int i = 0; i < 2000; ++i) {
    line.points.push_back({0.02 * i, 30.0 - 0.01 * i});
  }
  orders.push_back(std::move(line));
  // 2,000 ids at one location: a chain deeper than any fixed stack, and
  // every distance ties.
  orders.push_back({"one-location", std::vector<Vec2>(2000, Vec2{12, 34})});
  // A staircase with a leaf beside every step: a path 1,000 deep whose
  // nodes all have two children. A chain defers no subtree, but a search
  // here that cannot prune (a limit past the size) defers one per step
  // toward the far end, far more than any fixed stack holds.
  InsertionOrder stairs{"staircase", {}};
  for (int j = 0; j < 1000; ++j) {
    const double step = 0.04 * j;
    stairs.points.push_back({step, step});
    stairs.points.push_back(j % 2 == 0 ? Vec2{step - 0.02, step}
                                       : Vec2{step, step - 0.02});
  }
  orders.push_back(std::move(stairs));
  return orders;
}

History RecordAll(const std::vector<Vec2>& points) {
  History h;
  for (size_t i = 0; i < points.size(); ++i) {
    h.Record(1000 + static_cast<int>(i), points[i]);
  }
  return h;
}

TEST(History, NearestOtherPositionsMatchesLinearReference) {
  for (const InsertionOrder& order : HardInsertionOrders()) {
    const History h = RecordAll(order.points);
    ASSERT_EQ(h.size(), order.points.size());
    Rng rng(order.points.size());
    ExpectMatchesReference(h, ProbesFor(order.points, rng), order.name);
  }
}

// A deferred subtree whose bound equals the current cut must still be
// searched: a tie there with a lower insertion index wins. The root A
// splits on x, S (right of A) on y, Q lies in S's far side exactly at the
// bound, and W, left of A, ties Q at d² = 10 but was recorded after it.
TEST(History, TieAtADeferredSubtreesBoundStillCompetes) {
  const History h = RecordAll({{0, 0}, {5, 3}, {0, 3}, {-4, 1}});
  EXPECT_EQ(h.NearestOtherPositions({-1, 0}, -1, 2),
            (std::vector<Vec2>{{0, 0}, {0, 3}}));
  ExpectMatchesReference(h, {{-1, 0}}, "deferred tie");
}

// A history rebuilt from Entries() — an LR checkpoint's restore — answers
// every probe exactly as the original does.
TEST(History, ReplayedEntriesAnswerIdentically) {
  for (const InsertionOrder& order : HardInsertionOrders()) {
    const History h = RecordAll(order.points);
    History replayed;
    for (const auto& [id, pos] : h.Entries()) replayed.Record(id, pos);
    ASSERT_EQ(replayed.Entries(), h.Entries()) << order.name;
    Rng rng(order.points.size());
    for (const Vec2& probe : ProbesFor(order.points, rng)) {
      for (const int excluded : {1000, -1}) {
        for (const size_t limit : LimitsFor(h.size())) {
          EXPECT_EQ(replayed.NearestOtherPositions(probe, excluded, limit),
                    h.NearestOtherPositions(probe, excluded, limit))
              << order.name << " probe " << probe << " limit " << limit;
        }
      }
    }
  }
}

TEST(History, PositionFindsEveryRecordedIdAndRejectsOthers) {
  for (const InsertionOrder& order : HardInsertionOrders()) {
    const History h = RecordAll(order.points);
    for (const auto& [id, pos] : h.Entries()) {
      ASSERT_TRUE(h.Known(id)) << order.name;
      ASSERT_EQ(h.Position(id), pos) << order.name;
    }
    EXPECT_FALSE(h.Known(999)) << order.name;
    EXPECT_FALSE(h.Known(1000 + static_cast<int>(h.size()))) << order.name;
  }
  History h;
  EXPECT_DEATH(h.Position(0), "unknown tuple 0");
  h.Record(1, {1, 1});
  EXPECT_DEATH(h.Position(999), "unknown tuple 999");
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

// One history for the certificate agreement test below.
struct CertificateInput {
  std::string name;
  Box box;
  std::vector<Vec2> points;  // recorded with ids 0, 1, ...
};

std::vector<CertificateInput> CertificateInputs(uint64_t seed) {
  std::vector<CertificateInput> inputs;
  Rng rng(seed);

  CertificateInput uniform{"uniform", kBox, {}};
  for (int i = 0; i < 300; ++i) uniform.points.push_back(kBox.SamplePoint(rng));
  inputs.push_back(uniform);

  // Five clusters of spread 1e-3: cells far below the default λ0.
  CertificateInput clustered{"clustered", kBox, {}};
  const Vec2 centers[] = {{20, 20}, {80, 30}, {50, 50}, {30, 75}, {75, 80}};
  for (int i = 0; i < 300; ++i) {
    const Vec2& c = centers[i % 5];
    clustered.points.push_back({rng.Normal(c.x, 1e-3), rng.Normal(c.y, 1e-3)});
  }
  inputs.push_back(clustered);

  // Every location held by two or three tuples: o₁ has a twin, so the
  // convex cell over S′ ∖ {o₁} is the top-2 cell itself and the two areas
  // differ only by rounding.
  CertificateInput duplicates{"duplicates", kBox, {}};
  while (duplicates.points.size() < 300) {
    const Vec2 p = kBox.SamplePoint(rng);
    for (uint64_t copies = 2 + rng.UniformInt(2); copies > 0; --copies) {
      duplicates.points.push_back(p);
    }
  }
  inputs.push_back(duplicates);

  // Tuples on or just inside the edges and corners of a box away from the
  // origin: the disc crosses the box edge.
  const Box edge_box({-40, 1000}, {60, 1080});
  CertificateInput edge{"box-edge", edge_box, {}};
  Vec2 corners[4];
  edge_box.Corners(corners);
  for (int i = 0; i < 300; ++i) {
    const double inset = i % 3 == 0 ? 0.0 : rng.Uniform(0, 0.5);
    const double along = rng.Uniform01();
    Vec2 p;
    switch (i % 5) {
      case 0: p = {edge_box.lo.x + inset, edge_box.lo.y + along * 80}; break;
      case 1: p = {edge_box.hi.x - inset, edge_box.lo.y + along * 80}; break;
      case 2: p = {edge_box.lo.x + along * 100, edge_box.lo.y + inset}; break;
      case 3: p = {edge_box.lo.x + along * 100, edge_box.hi.y - inset}; break;
      default: p = corners[(i / 5) % 4]; break;
    }
    edge.points.push_back(p);
  }
  inputs.push_back(edge);

  // Histories of one to three tuples: the seed is tiny and both
  // certificate regions reach the box.
  for (size_t n = 1; n <= 3; ++n) {
    CertificateInput tiny{"tiny" + std::to_string(n), kBox, {}};
    for (size_t i = 0; i < n; ++i) tiny.points.push_back(kBox.SamplePoint(rng));
    inputs.push_back(tiny);
  }
  return inputs;
}

// TopTwoCellAreaExceeds must answer exactly as the full λ_2 does, for every
// λ0: the default fraction of the box, a multi-level one, and adversarial
// values at the full λ_2 and at the convex cell's area, each with its two
// neighbouring doubles. Focal tuples are the recorded ones (excluded by
// id) and fresh ones: anywhere, at a recorded tuple's location, or just
// beside one. A certificate that claims more area than the top-2 cell holds
// shows up as a flip at λ0 = λ_2; one whose margin is too thin, on the
// duplicate inputs, where the convex cell equals the top-2 cell. Each of
// these scratch mutations fails the test: no margin, the disc radius taken
// from o₃ or not halved, the convex cell without o₁ and o₂, and πr² for a
// disc that crosses the box edge.
TEST(History, TopTwoCellCertificateNeverFlipsTheFullDecision) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  size_t decisions = 0;
  size_t flips = 0;
  size_t cell_above = 0;  // convex cell alone clears λ0 by 1%
  size_t full_only = 0;   // λ_2 > λ0 but the convex cell does not clear it
  std::string first_flip;
  std::vector<CertificateInput> inputs;
  for (const uint64_t seed : {1, 2}) {
    for (CertificateInput& input : CertificateInputs(seed)) {
      inputs.push_back(std::move(input));
    }
  }
  for (const CertificateInput& input : inputs) {
    History h;
    for (size_t i = 0; i < input.points.size(); ++i) {
      h.Record(static_cast<int>(i), input.points[i]);
    }
    std::vector<std::pair<int, Vec2>> focal = h.Entries();
    Rng rng(input.points.size());
    for (int i = 0; i < 150; ++i) {
      Vec2 pos = input.box.SamplePoint(rng);
      if (i % 4 < 2) {
        pos = input.points[rng.UniformInt(input.points.size())];
        if (i % 4 == 1) {
          pos = input.box.Clamp(pos + Vec2{rng.Normal(), rng.Normal()} * 0.05);
        }
      }
      focal.emplace_back(100000 + i, pos);
    }
    for (const auto& [id, pos] : focal) {
      const double lambda2 = h.UpperBoundCellArea(id, pos, input.box, 2);
      std::vector<double> lambda0s = {2e-5 * input.box.Area(),
                                      1e-4 * input.box.Area()};
      std::vector<double> marks = {lambda2};
      std::vector<Vec2> rest =
          h.NearestOtherPositions(pos, id, History::kBoundSeedSize);
      const auto o1 =
          std::find_if(rest.begin(), rest.end(), [&pos](const Vec2& o) {
            return SquaredDistance(o, pos) > 0.0;
          });
      if (o1 != rest.end()) {
        rest.erase(o1);
        marks.push_back(ComputeTopkRegionArea(pos, rest, input.box, 1));
      }
      for (const double m : marks) {
        lambda0s.insert(lambda0s.end(),
                        {m, std::nextafter(m, 0.0),
                         std::nextafter(m, kInfinity)});
      }
      for (const double lambda0 : lambda0s) {
        const bool want = lambda2 > lambda0;
        const bool got = h.TopTwoCellAreaExceeds(id, pos, input.box, lambda0);
        const bool cell_clears = marks.size() > 1 && marks[1] > 1.01 * lambda0;
        ++decisions;
        if (cell_clears) ++cell_above;
        if (want && !cell_clears) ++full_only;
        if (got != want && flips++ == 0) {
          std::ostringstream os;
          os.precision(17);
          os << input.name << " id " << id << " pos " << pos << " lambda0 "
             << lambda0 << " lambda2 " << lambda2 << " certificate " << got;
          first_flip = os.str();
        }
      }
    }
  }
  EXPECT_EQ(flips, 0u) << "of " << decisions << " decisions; first: "
                       << first_flip;
  // The inputs reach every stage: decisions the convex cell (or the disc
  // before it) settles, and "yes" answers only the full λ_2 gives.
  EXPECT_GT(decisions, 30000u);
  EXPECT_GT(cell_above, 4000u);
  EXPECT_GT(full_only, 8000u);
}

}  // namespace
}  // namespace lbsagg
