#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "engine/log/durable_log.h"
#include "lbs/client.h"
#include "lbs/server.h"

namespace lbsagg {
namespace {

// A scripted fake resolver: each round costs 10 queries and commits one
// observation whose HT contribution is the next schedule entry, so a COUNT
// aggregate's estimate is the running mean of the schedule.
class FakeResolver : public engine::CellResolver {
 public:
  FakeResolver(const LbsClient* client, std::vector<double> schedule)
      : client_(client), schedule_(std::move(schedule)) {}

  void ResolveRound(const engine::EvidenceDemand&,
                    engine::EvidenceStore* store) override {
    store->BeginRound({0, 0});
    if (next_ < schedule_.size()) {
      engine::Observation obs;
      obs.tuple_id = 0;
      obs.weight = schedule_[next_++];
      store->Append(obs);
    }
    queries_ += 10;
    store->EndRound(queries_);
  }
  const LbsClient& client() const override { return *client_; }
  uint64_t queries_used() const override { return queries_; }
  const char* name() const override { return "fake"; }
  std::string diagnostics_json() const override { return "{}"; }
  void SaveState(std::string*) const override {}
  bool RestoreState(std::string_view) override { return true; }

 private:
  const LbsClient* client_;
  std::vector<double> schedule_;
  size_t next_ = 0;
  uint64_t queries_ = 0;
};

Dataset OneTuple() {
  Dataset dataset(Box({0, 0}, {10, 10}), Schema());
  dataset.Add({1, 1}, {});
  return dataset;
}

// The attribute-read client aggregates fold through; the fake resolver never
// queries it.
struct TinyService {
  Dataset dataset = OneTuple();
  LbsServer server{&dataset, {.max_k = 1}};
  LrClient client{&server, {.k = 1}};
};

TEST(Runner, RunWithBudgetStopsAtBudget) {
  TinyService service;
  FakeResolver fake(&service.client, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  engine::EstimationEngine eng(&fake);
  eng.AddAggregate(AggregateSpec::Count());
  EXPECT_EQ(RunEngine(&eng, {.budget = 45}), 5u);
  const RunResult r = EngineResults(eng)[0];
  // Steps at 10,20,30,40,50: the 5th step starts while under budget.
  EXPECT_EQ(r.queries, 50u);
  EXPECT_EQ(r.trace.size(), 5u);
  EXPECT_DOUBLE_EQ(r.final_estimate, 3.0);  // mean of 1..5
}

TEST(Runner, RunWithBudgetRespectsMaxRounds) {
  TinyService service;
  FakeResolver fake(&service.client, {1, 2, 3});
  engine::EstimationEngine eng(&fake);
  eng.AddAggregate(AggregateSpec::Count());
  EXPECT_EQ(RunEngine(&eng, {.budget = 1000000, .max_rounds = 3}), 3u);
  EXPECT_EQ(EngineResults(eng)[0].trace.size(), 3u);

  // The cap bounds one call, not the engine's lifetime — also on an engine
  // whose first rounds were restored from evidence.
  FakeResolver fresh(&service.client, {});
  engine::EstimationEngine restored(&fresh);
  restored.AddAggregate(AggregateSpec::Count());
  restored.RestoreEvidence(eng.evidence());
  EXPECT_EQ(RunEngine(&restored, {.budget = 1000000, .max_rounds = 2}), 2u);
  EXPECT_EQ(restored.evidence().num_rounds(), 5u);
  EXPECT_EQ(restored.aggregate(0)->trace().size(), 5u);
}

TEST(Runner, CheckpointsAfterEveryRound) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "runner_test_wal")
          .string();
  std::filesystem::remove_all(dir);
  TinyService service;
  FakeResolver fake(&service.client, {1, 2, 3, 4, 5, 6, 7});
  engine::EstimationEngine eng(&fake);
  eng.AddAggregate(AggregateSpec::Count());
  engine::DurableLogOptions options;
  options.dir = dir;
  options.checkpoint_every_rounds = 1;
  engine::DurableEvidenceLog wal(options, &eng, &service.client);
  ASSERT_TRUE(wal.ok()) << wal.error();
  const uint64_t opening = wal.checkpoints_written();
  EXPECT_EQ(RunEngine(&eng, {.budget = 70}, &wal), 7u);
  EXPECT_EQ(wal.checkpoints_written() - opening, 7u);
}

TEST(Runner, EstimateAtCostIsStepFunction) {
  const std::vector<TracePoint> trace = {{10, 100.0}, {20, 110.0}, {35, 95.0}};
  EXPECT_DOUBLE_EQ(EstimateAtCost(trace, 5), 0.0);
  EXPECT_DOUBLE_EQ(EstimateAtCost(trace, 10), 100.0);
  EXPECT_DOUBLE_EQ(EstimateAtCost(trace, 19), 100.0);
  EXPECT_DOUBLE_EQ(EstimateAtCost(trace, 34), 110.0);
  EXPECT_DOUBLE_EQ(EstimateAtCost(trace, 1000), 95.0);
}

TEST(Runner, ErrorCurveAveragesRuns) {
  RunResult a, b;
  a.trace = {{10, 90.0}, {20, 100.0}};
  a.queries = 20;
  b.trace = {{10, 130.0}, {20, 100.0}};
  b.queries = 20;
  const ErrorCurve curve = ComputeErrorCurve({a, b}, 100.0, 2);
  ASSERT_EQ(curve.checkpoints.size(), 2u);
  EXPECT_EQ(curve.checkpoints[0], 10u);
  EXPECT_EQ(curve.checkpoints[1], 20u);
  EXPECT_NEAR(curve.mean_rel_error[0], (0.1 + 0.3) / 2.0, 1e-12);
  EXPECT_NEAR(curve.mean_rel_error[1], 0.0, 1e-12);
}

TEST(Runner, QueryCostForErrorInterpolates) {
  ErrorCurve curve;
  curve.checkpoints = {100, 200, 300};
  curve.mean_rel_error = {0.4, 0.2, 0.1};
  EXPECT_NEAR(QueryCostForError(curve, 0.3), 150.0, 1e-9);
  EXPECT_NEAR(QueryCostForError(curve, 0.4), 100.0, 1e-9);
  EXPECT_NEAR(QueryCostForError(curve, 0.05), 300.0, 1e-9);  // never reached
}

TEST(Runner, QueryCostForErrorNonMonotoneCurve) {
  ErrorCurve curve;
  curve.checkpoints = {100, 200, 300};
  curve.mean_rel_error = {0.1, 0.3, 0.05};
  // Target hit immediately at the first checkpoint.
  EXPECT_NEAR(QueryCostForError(curve, 0.2), 100.0, 1e-9);
}

}  // namespace
}  // namespace lbsagg
