// Tests for the adoption surface: the command-line flag parser and CSV
// dataset persistence used by tools/lbsagg_cli.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lbs/dataset_io.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

// --- FlagParser -------------------------------------------------------------

FlagParser MakeParser() {
  FlagParser flags;
  flags.AddString("name", "default", "a string");
  flags.AddInt("count", 7, "an int");
  flags.AddDouble("ratio", 0.5, "a double");
  flags.AddBool("verbose", false, "a bool");
  return flags;
}

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(FlagParser, DefaultsWhenUnset) {
  FlagParser flags = MakeParser();
  const auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("name"), "default");
  EXPECT_EQ(flags.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagParser, EqualsAndSpaceSyntax) {
  FlagParser flags = MakeParser();
  const auto argv =
      Argv({"--name=abc", "--count", "42", "--ratio=1.25", "--verbose"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetString("name"), "abc");
  EXPECT_EQ(flags.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 1.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParser, PositionalArgumentsCollected) {
  FlagParser flags = MakeParser();
  const auto argv = Argv({"input.csv", "--count=3", "more"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(FlagParser, RejectsUnknownFlag) {
  FlagParser flags = MakeParser();
  const auto argv = Argv({"--bogus=1"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(flags.error().find("bogus"), std::string::npos);
}

TEST(FlagParser, RejectsMalformedValues) {
  {
    FlagParser flags = MakeParser();
    const auto argv = Argv({"--count=abc"});
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    FlagParser flags = MakeParser();
    const auto argv = Argv({"--ratio=1.2.3"});
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    FlagParser flags = MakeParser();
    const auto argv = Argv({"--verbose=maybe"});
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    FlagParser flags = MakeParser();
    const auto argv = Argv({"--name"});  // missing value
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  }
}

TEST(FlagParser, HelpTextListsFlags) {
  const FlagParser flags = MakeParser();
  const std::string help = flags.HelpText("prog");
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("default: 7"), std::string::npos);
}

// --- Dataset CSV ------------------------------------------------------------

Dataset SmallDataset() {
  Schema schema;
  schema.AddColumn("name", AttrType::kString);
  schema.AddColumn("score", AttrType::kDouble);
  schema.AddColumn("flag", AttrType::kBool);
  Dataset d(Box({0, 0}, {10, 10}), schema);
  d.Add({1.5, 2.25}, {std::string("alpha"), 3.125, true});
  d.Add({7.0, 8.5}, {std::string("beta"), -0.5, false});
  d.Add({10.0, 0.0}, {std::string("corner"), 0.0, true});  // box is inclusive
  return d;
}

TEST(DatasetCsv, RoundTripPreservesEverything) {
  const Dataset original = SmallDataset();
  std::stringstream buffer;
  WriteDatasetCsv(original, buffer);
  std::string error;
  const auto loaded = ReadDatasetCsv(buffer, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->size(), original.size());
  EXPECT_EQ(loaded->box().lo, original.box().lo);
  EXPECT_EQ(loaded->box().hi, original.box().hi);
  EXPECT_EQ(loaded->schema().num_columns(), 3);
  EXPECT_EQ(loaded->schema().Require("score"), 1);
  for (size_t i = 0; i < original.size(); ++i) {
    const Tuple& a = original.tuple(static_cast<int>(i));
    const Tuple& b = loaded->tuple(static_cast<int>(i));
    EXPECT_EQ(a.pos, b.pos);
    EXPECT_EQ(a.values, b.values);
  }
}

TEST(DatasetCsv, RoundTripPreservesDoublePrecision) {
  Schema schema;
  schema.AddColumn("v", AttrType::kDouble);
  Dataset d(Box({0, 0}, {1, 1}), schema);
  const double value = 0.1234567890123456789;
  d.Add({0.3333333333333333, 0.9999999999999999}, {value});
  std::stringstream buffer;
  WriteDatasetCsv(d, buffer);
  const auto loaded = ReadDatasetCsv(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->tuple(0).pos.x, 0.3333333333333333);
  EXPECT_DOUBLE_EQ(std::get<double>(loaded->tuple(0).values[0]), value);
}

TEST(DatasetCsv, LargeScenarioRoundTrip) {
  UsaOptions options;
  options.num_pois = 500;
  const UsaScenario usa = BuildUsaScenario(options);
  std::stringstream buffer;
  WriteDatasetCsv(*usa.dataset, buffer);
  const auto loaded = ReadDatasetCsv(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 500u);
  EXPECT_DOUBLE_EQ(loaded->GroundTruthCount(),
                   usa.dataset->GroundTruthCount());
  EXPECT_DOUBLE_EQ(
      loaded->GroundTruthCount(CategoryIs(usa.columns, "school")),
      usa.dataset->GroundTruthCount(CategoryIs(usa.columns, "school")));
}

TEST(DatasetCsv, RejectsMalformedInputs) {
  auto expect_fail = [](const std::string& text, const char* what) {
    std::stringstream buffer(text);
    std::string error;
    EXPECT_FALSE(ReadDatasetCsv(buffer, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
  };
  expect_fail("x,y\n1,2\n", "missing box line");
  expect_fail("# box 0 0 10\nx,y\n", "short box line");
  expect_fail("# box 0 0 10 10\ny,x\n", "wrong leading columns");
  expect_fail("# box 0 0 10 10\nx,y,score\n", "column without type");
  expect_fail("# box 0 0 10 10\nx,y,score:float\n", "unknown type");
  expect_fail("# box 0 0 10 10\nx,y,s:double\n1,2\n", "short row");
  expect_fail("# box 0 0 10 10\nx,y,s:double\n1,2,abc\n", "bad double cell");
  expect_fail("# box 0 0 10 10\nx,y,b:bool\n1,2,yes\n", "bad bool cell");
  expect_fail("# box 0 0 10 10\nx,y\noops,2\n", "bad coordinate");
  expect_fail("# box 0 0 10 10\nx,y\n,2\n", "empty x");
  expect_fail("# box 0 0 10 10\nx,y\n1,\n", "empty y");
  expect_fail("# box 0 0 10 10\nx,y\nnan,2\n", "nan x");
  expect_fail("# box 0 0 10 10\nx,y\n1,inf\n", "inf y");
  expect_fail("# box 0 0 10 10\nx,y,s:double\n1,2,nan\n", "nan double cell");
  expect_fail("# box 0 0 10 10\nx,y,s:double\n1,2,-inf\n", "inf double cell");
  expect_fail("# box 0 0 10 10\nx,y\n1e9,1e9\n", "tuple outside the box");
  expect_fail("# box 0 0 10 10\nx,y\n5,-0.5\n", "tuple below the box");
  expect_fail("# box 0 0 0 10\nx,y\n0,2\n", "zero-width box");
  expect_fail("# box 0 5 10 5\nx,y\n1,5\n", "zero-height box");
  expect_fail("# box -1 -1 10 10\nx,y\n0,2\n3,4\n-0.0,2.0\n",
              "tuples sharing a location");
}

TEST(DatasetCsv, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(LoadDatasetCsv("/nonexistent/nope.csv", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace lbsagg
