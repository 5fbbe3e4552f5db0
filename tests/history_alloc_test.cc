// Heap traffic of the LR history (core/history): re-recording a known id
// allocates nothing, and a search allocates at most its result vector. The
// binary replaces the global operator new with a counting one
// (counting_new.cc).

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "counting_new.h"
#include "util/rng.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {1000, 1000});

// 3,500 entries, about the largest history an LR session reaches.
History RandomHistory() {
  History h;
  Rng rng(29);
  for (int i = 0; i < 3500; ++i) h.Record(i, kBox.SamplePoint(rng));
  return h;
}

TEST(HistoryAllocations, ReRecordingAKnownIdAllocatesNothing) {
  History h = RandomHistory();
  const std::vector<std::pair<int, Vec2>> entries = h.Entries();
  const uint64_t before = testing_alloc::g_allocations.load();
  for (const auto& [id, pos] : entries) h.Record(id, pos + Vec2{1, 1});
  const uint64_t allocations = testing_alloc::g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(h.Entries(), entries);  // the first position still wins
}

TEST(HistoryAllocations, SearchesAllocateAtMostTheirResult) {
  const History h = RandomHistory();
  const std::vector<std::pair<int, Vec2>> entries = h.Entries();
  for (const size_t limit : {size_t{2}, size_t{32}, History::kBoundSeedSize}) {
    uint64_t worst = 0;
    for (size_t i = 0; i < entries.size(); i += 7) {
      const uint64_t before = testing_alloc::g_allocations.load();
      const std::vector<Vec2> got =
          h.NearestOtherPositions(entries[i].second, entries[i].first, limit);
      worst = std::max(worst, testing_alloc::g_allocations.load() - before);
      ASSERT_EQ(got.size(), limit);
    }
    EXPECT_LE(worst, 1u) << "limit " << limit;
  }
}

}  // namespace
}  // namespace lbsagg
