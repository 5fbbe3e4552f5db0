// Heap traffic of the hidden database's columnar storage (lbs/dataset):
// after Reserve, adding a tuple whose strings fit the small-string buffer
// allocates nothing and keeps no block of the caller's, so no per-tuple
// heap block can return; and a value read back allocates only a long
// string's copy. The binary replaces the global operator new with a
// counting one (counting_new.cc).

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "counting_new.h"
#include "lbs/dataset.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

const Box kBox({0, 0}, {100, 100});

Schema MixedSchema() {
  Schema schema;
  schema.AddColumn("category", AttrType::kString);
  schema.AddColumn("rating", AttrType::kDouble);
  schema.AddColumn("open", AttrType::kBool);
  schema.AddColumn("name", AttrType::kString);
  return schema;
}

TEST(DatasetAllocations, AddAfterReserveAllocatesNothingPerTuple) {
  constexpr int kTuples = 5000;
  Dataset d(kBox, MixedSchema());
  d.Reserve(kTuples);
  Rng rng(31);
  std::vector<Vec2> positions;
  std::vector<std::vector<AttrValue>> rows;
  for (int i = 0; i < kTuples; ++i) {
    positions.push_back(kBox.SamplePoint(rng));
    rows.push_back({std::string(i % 2 ? "restaurant" : "school"),
                    rng.Uniform(1, 5), i % 3 == 0,
                    "poi #" + std::to_string(i)});
  }
  const uint64_t before = testing_alloc::g_allocations.load();
  const uint64_t freed_before = testing_alloc::g_deallocations.load();
  for (int i = 0; i < kTuples; ++i) d.Add(positions[i], std::move(rows[i]));
  const uint64_t allocations = testing_alloc::g_allocations.load() - before;
  const uint64_t freed = testing_alloc::g_deallocations.load() - freed_before;
  EXPECT_EQ(allocations, 0u);
  // Each row's value vector is released inside Add, not kept as the
  // tuple's block.
  EXPECT_EQ(freed, static_cast<uint64_t>(kTuples));
  ASSERT_EQ(d.size(), static_cast<size_t>(kTuples));
  EXPECT_EQ(d.Positions(), positions);
  EXPECT_EQ(std::get<std::string>(d.tuple(4999).values[3]), "poi #4999");
}

// Every column type reads back the value added, through tuple(), tuples(),
// Value() and the value iterator; a string longer than the small-string
// buffer survives, and reading it allocates its copy alone.
TEST(DatasetColumns, ValuesRoundTripForEveryColumnType) {
  Dataset d(kBox, MixedSchema());
  const std::string long_name = "a name longer than fifteen characters";
  const std::vector<std::vector<AttrValue>> rows = {
      {std::string("cafe"), 4.25, true, long_name},
      {std::string(""), -0.0, false, std::string("short")},
      {std::string("school"), 1e-300, true, std::string(16, 'x')}};
  const std::vector<Vec2> positions = {{1, 2}, {3, 4}, {5, 6}};
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(d.Add(positions[i], rows[i]), static_cast<int>(i));
  }
  for (int id = 0; id < 3; ++id) {
    const Tuple t = d.tuple(id);
    EXPECT_EQ(t.id, id);
    EXPECT_EQ(t.pos, positions[id]);
    ASSERT_EQ(t.values.size(), 4u);
    EXPECT_EQ(t.values.ToVector(), rows[id]);
    for (int col = 0; col < 4; ++col) {
      EXPECT_EQ(t.values[col], rows[id][col]) << id << " " << col;
      EXPECT_EQ(d.Value(id, col), rows[id][col]) << id << " " << col;
      EXPECT_EQ(TypeOf(t.values[col]), d.schema().type(col));
    }
  }
  EXPECT_TRUE(std::signbit(std::get<double>(d.Value(1, 1))));
  int next = 0;
  for (const Tuple& t : d.tuples()) {
    EXPECT_EQ(t.id, next);
    std::vector<AttrValue> iterated;
    for (const AttrValue& v : t.values) iterated.push_back(v);
    EXPECT_EQ(iterated, rows[next]);
    ++next;
  }
  EXPECT_EQ(next, 3);

  const auto allocations_of = [&](int id, int col) {
    const uint64_t before = testing_alloc::g_allocations.load();
    const AttrValue v = d.Value(id, col);
    const uint64_t n = testing_alloc::g_allocations.load() - before;
    EXPECT_EQ(v, rows[id][col]);
    return n;
  };
  EXPECT_EQ(allocations_of(0, 0), 0u);  // short string
  EXPECT_EQ(allocations_of(0, 1), 0u);  // double
  EXPECT_EQ(allocations_of(0, 2), 0u);  // bool
  EXPECT_EQ(allocations_of(0, 3), 1u);  // long string: its copy

  // String() reads in place, long strings included; a column of another
  // type is refused.
  const Tuple first = d.tuple(0);
  const uint64_t before = testing_alloc::g_allocations.load();
  EXPECT_EQ(first.values.String(3), long_name);
  EXPECT_EQ(first.values.String(0), "cafe");
  EXPECT_EQ(testing_alloc::g_allocations.load() - before, 0u);
  EXPECT_DEATH(first.values.String(1), "column rating is not a string");
}

// The selection filters compare names in place: a server tests a
// pass-through filter on every candidate, and a copied name longer than the
// small-string buffer would allocate on each test.
TEST(DatasetAllocations, NameFilterAllocatesNothingPerTest) {
  Dataset d(kBox, MixedSchema());
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    d.Add(kBox.SamplePoint(rng),
          {std::string("restaurant"), 3.0, true,
           i % 10 == 0 ? std::string("Starbucks")
                       : "restaurant-" + std::to_string(10000 + i)});
  }
  UsaColumns cols{};
  cols.category = 0;
  cols.name = 3;
  const TupleFilter starbucks = NameIs(cols, "Starbucks");
  const TupleFilter restaurants = CategoryIs(cols, "restaurant");
  int named = 0;
  int categorized = 0;
  const uint64_t before = testing_alloc::g_allocations.load();
  for (const Tuple& t : d.tuples()) {
    named += starbucks(t);
    categorized += restaurants(t);
  }
  EXPECT_EQ(testing_alloc::g_allocations.load() - before, 0u);
  EXPECT_EQ(named, 100);
  EXPECT_EQ(categorized, 1000);
}

}  // namespace
}  // namespace lbsagg
