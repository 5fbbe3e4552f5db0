// Crash-recovery matrix for the durable evidence log (DESIGN.md §4.14). The
// contract under test: a run killed at ANY byte boundary of its WAL and
// resumed — same process or a fresh one — finishes with bit-identical
// estimates, traces, and query counts to the uninterrupted run. The matrix
// crosses kill points (mid-record, mid-round, between a checkpoint and the
// tail, torn last record, even mid-header) with every resolver family, and
// the fig12 regression fingerprint is pinned straight through a
// crash+resume. The two-process half runs a real fork + SIGKILL (gated off
// under TSAN, which does not survive forked children).

#include "engine/log/durable_log.h"

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "engine/lr_resolver.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "service/service.h"
#include "util/binary_io.h"
#include "workload/scenarios.h"

#if defined(__SANITIZE_THREAD__)
#define LBSAGG_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LBSAGG_TSAN 1
#endif
#endif

namespace lbsagg {
namespace engine {
namespace {

namespace fs = std::filesystem;

const UsaScenario& SmallUsa() {
  static const UsaScenario usa = BuildUsaScenario({.num_pois = 800});
  return usa;
}

std::string TestDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("durability_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

enum class Family { kLr, kLnr, kNno };

// The estimator stack of one run, built identically for the original run
// and every resume — the bit-identity contract requires it.
struct Stack {
  std::unique_ptr<LbsClient> client;
  std::unique_ptr<CellResolver> resolver;
  std::unique_ptr<EstimationEngine> engine;
  AggregateQuery* query = nullptr;
};

Stack BuildStack(Family family, const LbsServer& server,
                 const QuerySampler* sampler, uint64_t seed, uint64_t budget,
                 const AggregateSpec& spec) {
  Stack stack;
  switch (family) {
    case Family::kLr: {
      auto client = std::make_unique<LrClient>(
          &server, ClientOptions{.k = 5, .budget = budget});
      LrAggOptions opts;
      opts.seed = seed;
      stack.resolver =
          std::make_unique<LrCellResolver>(client.get(), sampler, opts);
      stack.client = std::move(client);
      break;
    }
    case Family::kLnr: {
      auto client = std::make_unique<LnrClient>(
          &server, ClientOptions{.k = 5, .budget = budget});
      LnrAggOptions opts;
      opts.seed = seed;
      stack.resolver =
          std::make_unique<LnrCellResolver>(client.get(), sampler, opts);
      stack.client = std::move(client);
      break;
    }
    case Family::kNno: {
      auto client = std::make_unique<LrClient>(
          &server, ClientOptions{.k = 5, .budget = budget});
      NnoOptions opts;
      opts.seed = seed;
      stack.resolver =
          std::make_unique<NnoProbeResolver>(client.get(), opts);
      stack.client = std::move(client);
      break;
    }
  }
  stack.engine = std::make_unique<EstimationEngine>(stack.resolver.get());
  stack.query = stack.engine->AddAggregate(spec);
  return stack;
}

struct RunOutcome {
  double estimate = 0.0;
  uint64_t fingerprint = 0;
  uint64_t queries = 0;
  size_t rounds = 0;
};

RunOutcome Outcome(const Stack& stack) {
  RunOutcome outcome;
  outcome.estimate = stack.query->Estimate();
  outcome.fingerprint = TraceFingerprint(stack.query->trace());
  outcome.queries = stack.engine->queries_used();
  outcome.rounds = stack.engine->evidence().num_rounds();
  return outcome;
}

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b,
                       const std::string& label) {
  EXPECT_TRUE(SameBits(a.estimate, b.estimate))
      << label << ": " << a.estimate << " vs " << b.estimate;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label;
  EXPECT_EQ(a.queries, b.queries) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
}

// Runs a fresh durable run to completion in `dir` and returns its outcome.
// A positive `target_ci` adds §2.3's confidence stop to the budget.
RunOutcome RunDurably(Family family, const std::string& dir, uint64_t seed,
                      uint64_t budget, uint64_t checkpoint_every,
                      const AggregateSpec& spec, double target_ci = 0.0) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());
  Stack stack = BuildStack(family, server, &sampler, seed, budget, spec);
  DurableLogOptions options;
  options.dir = dir;
  options.checkpoint_every_rounds = checkpoint_every;
  DurableEvidenceLog wal(options, stack.engine.get(), stack.client.get());
  EXPECT_TRUE(wal.ok()) << wal.error();
  RunEngine(stack.engine.get(), {.budget = budget, .target_ci = target_ci},
            &wal);
  wal.Close();
  return Outcome(stack);
}

// Recovers `dir`, rebuilds the identical stack, and finishes the run under
// the same stop rule. `error_out` non-null captures a refusal instead of
// failing the test.
RunOutcome ResumeAndFinish(Family family, const std::string& dir,
                           uint64_t seed, uint64_t budget,
                           uint64_t checkpoint_every, const AggregateSpec& spec,
                           std::string* error_out = nullptr,
                           double target_ci = 0.0) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());
  Stack stack = BuildStack(family, server, &sampler, seed, budget, spec);

  RecoveredRun rec = RecoverDurableRun(dir);
  std::string error = rec.error;
  if (error.empty()) {
    stack.engine->RestoreEvidence(rec.evidence);
    error = ApplyCheckpoint(rec, stack.engine.get(), stack.client.get());
  }
  if (!error.empty()) {
    if (error_out != nullptr) {
      *error_out = error;
      return RunOutcome{};
    }
    ADD_FAILURE() << "resume failed: " << error;
    return RunOutcome{};
  }

  DurableLogOptions options;
  options.dir = dir;
  options.checkpoint_every_rounds = checkpoint_every;
  DurableEvidenceLog wal(options, stack.engine.get(), stack.client.get());
  EXPECT_TRUE(wal.ok()) << wal.error();
  RunEngine(stack.engine.get(), {.budget = budget, .target_ci = target_ci},
            &wal);
  wal.Close();
  return Outcome(stack);
}

void CopyWalDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

// --- Kill-point matrix ------------------------------------------------------

// Simulates a SIGKILL at byte `cut` of the (single-segment) WAL: everything
// the crashed process wrote past the cut never reached disk, while every
// checkpoint file survives — recovery must discard the ones the truncated
// log no longer covers.
void TruncateSegment(const std::string& dir, uint64_t cut) {
  const fs::path segment = fs::path(dir) / WalSegmentName(0);
  ASSERT_TRUE(fs::exists(segment));
  if (fs::file_size(segment) > cut) fs::resize_file(segment, cut);
}

// `budget` is per-family: a round costs ~10 interface queries for LR, ~40
// for NNO, and several hundred for LNR's binary searches, and the matrix
// wants a two-digit round count from each.
void RunKillPointMatrix(Family family, const char* name, uint64_t budget) {
  const AggregateSpec spec = AggregateSpec::Count();
  const uint64_t seed = 11, every = 4;
  const std::string oracle_dir = TestDir(std::string(name) + "_oracle");
  const RunOutcome oracle =
      RunDurably(family, oracle_dir, seed, budget, every, spec);
  ASSERT_GT(oracle.rounds, 8u);

  const fs::path segment = fs::path(oracle_dir) / WalSegmentName(0);
  ASSERT_TRUE(fs::exists(segment));
  const uint64_t full = fs::file_size(segment);
  const std::string cut_dir = TestDir(std::string(name) + "_cut");

  // Byte cuts: a coarse sweep (prime stride so cuts land mid-record and
  // mid-round) plus the exact commit boundaries and their neighbours (the
  // "torn last record" and "between checkpoint and tail" points).
  std::vector<uint64_t> cuts;
  for (uint64_t cut = 0; cut < full; cut += 131) cuts.push_back(cut);
  const WalReadResult read = ReadWal(oracle_dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  for (size_t r = 0; r < read.round_offsets.size(); r += 5) {
    const uint64_t boundary = read.round_offsets[r].second;
    cuts.push_back(boundary);
    if (boundary > 0) cuts.push_back(boundary - 1);
    cuts.push_back(boundary + 1);
  }

  for (const uint64_t cut : cuts) {
    CopyWalDir(oracle_dir, cut_dir);
    TruncateSegment(cut_dir, cut);
    const RunOutcome resumed =
        ResumeAndFinish(family, cut_dir, seed, budget, every, spec);
    ExpectSameOutcome(resumed, oracle,
                      std::string(name) + " cut=" + std::to_string(cut));
    // The resumed directory is clean: recovery truncated the torn tail and
    // the resumed writer extended a committed prefix.
    const WalReadResult after = ReadWal(cut_dir);
    EXPECT_TRUE(after.error.empty()) << after.error;
    EXPECT_EQ(after.torn_bytes, 0u) << "cut=" << cut;
    EXPECT_EQ(after.evidence.NumRounds(), oracle.rounds) << "cut=" << cut;
  }
}

TEST(DurabilityMatrix, LrResumesBitIdenticallyFromEveryKillPoint) {
  RunKillPointMatrix(Family::kLr, "lr", 300);
}

TEST(DurabilityMatrix, LnrResumesBitIdenticallyFromEveryKillPoint) {
  RunKillPointMatrix(Family::kLnr, "lnr", 6000);
}

TEST(DurabilityMatrix, NnoResumesBitIdenticallyFromEveryKillPoint) {
  RunKillPointMatrix(Family::kNno, "nno", 600);
}

// Clean-shutdown handoff inside one process: run half the budget, Close,
// tear the stack down, rebuild, resume to the full budget.
TEST(Durability, CleanHandoffAcrossStacksMatchesUninterruptedRun) {
  const AggregateSpec spec = AggregateSpec::Count();
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());

  // Uninterrupted oracle (no WAL attached: attaching one must not perturb).
  Stack oracle_stack =
      BuildStack(Family::kLr, server, &sampler, 3, 400, spec);
  RunEngine(oracle_stack.engine.get(), {.budget = 400});
  const RunOutcome oracle = Outcome(oracle_stack);

  const std::string dir = TestDir("handoff");
  {
    Stack stack = BuildStack(Family::kLr, server, &sampler, 3, 400, spec);
    DurableLogOptions options;
    options.dir = dir;
    options.checkpoint_every_rounds = 8;
    DurableEvidenceLog wal(options, stack.engine.get(), stack.client.get());
    // Half the run: stop after 15 rounds, Close (final checkpoint).
    RunEngine(stack.engine.get(), {.budget = 400, .max_rounds = 15}, &wal);
    wal.Close();
    EXPECT_TRUE(wal.ok()) << wal.error();
    EXPECT_EQ(stack.engine->evidence().num_rounds(), 15u);
  }
  const RunOutcome resumed =
      ResumeAndFinish(Family::kLr, dir, 3, 400, 8, spec);
  ExpectSameOutcome(resumed, oracle, "clean handoff");
}

// §2.3's confidence stop reads engine state only — committed rounds,
// restored ones included — so a confidence-stopped run killed mid-way, or a
// few rounds short of its stop (fewer than min_rounds past the checkpoint it
// resumes from), resumes to exactly the uninterrupted run's stop.
TEST(Durability, ConfidenceStoppedRunResumesToTheSameStop) {
  const AggregateSpec spec = AggregateSpec::Count();
  const uint64_t budget = 20000, seed = 7, every = 4;
  const double target_ci = 0.3;
  const std::string oracle_dir = TestDir("ci_oracle");
  const RunOutcome oracle =
      RunDurably(Family::kLr, oracle_dir, seed, budget, every, spec, target_ci);
  ASSERT_LT(oracle.queries, budget) << "the budget, not the rule, stopped it";
  ASSERT_GT(oracle.rounds, 40u);

  const WalReadResult read = ReadWal(oracle_dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  const uint64_t full =
      fs::file_size(fs::path(oracle_dir) / WalSegmentName(0));
  const std::string cut_dir = TestDir("ci_cut");
  for (const uint64_t cut :
       {full / 2, read.round_offsets[oracle.rounds - 10].second + 1}) {
    CopyWalDir(oracle_dir, cut_dir);
    TruncateSegment(cut_dir, cut);
    const RunOutcome resumed = ResumeAndFinish(
        Family::kLr, cut_dir, seed, budget, every, spec, nullptr, target_ci);
    ExpectSameOutcome(resumed, oracle, "ci stop, cut=" + std::to_string(cut));
  }
}

// --- Refusals ---------------------------------------------------------------

TEST(Durability, ResumeRefusesAnImpossibleStateCount) {
  const AggregateSpec spec = AggregateSpec::Count();
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  UniformSampler sampler(usa.dataset->box());
  Stack stack = BuildStack(Family::kLnr, server, &sampler, 1, 100, spec);

  // A fresh LNR blob ends with two empty probability-cache counts and three
  // diagnostic counters. Cut it after the RNG state and claim 2^62 cached
  // probabilities: the restore must run out of blob, not allocate.
  std::string blob;
  stack.resolver->SaveState(&blob);
  blob.resize(blob.size() - 5 * sizeof(uint64_t));
  BinaryWriter(&blob).PutU64(uint64_t{1} << 62);

  RecoveredRun rec;  // fabricated: what a CRC-valid checkpoint decodes to
  rec.found_checkpoint = true;
  rec.checkpoint.round = 0;
  rec.checkpoint.resolver_name = stack.resolver->name();
  rec.checkpoint.resolver_state = blob;
  const std::string error =
      ApplyCheckpoint(rec, stack.engine.get(), stack.client.get());
  EXPECT_NE(error.find("rejected"), std::string::npos) << error;
}

TEST(Durability, ResumeRefusesAggregateAndFamilyMismatches) {
  const AggregateSpec spec = AggregateSpec::Count();
  const std::string dir = TestDir("mismatch");
  RunDurably(Family::kLr, dir, 5, 200, 8, spec);

  // Wrong family: the checkpoint names the lr resolver.
  std::string error;
  ResumeAndFinish(Family::kNno, dir, 5, 200, 8, spec, &error);
  EXPECT_FALSE(error.empty());

  // Wrong aggregate set: same family, different spec name.
  const std::string dir2 = TestDir("mismatch2");
  RunDurably(Family::kLr, dir2, 5, 200, 8, spec);
  error.clear();
  ResumeAndFinish(Family::kLr, dir2, 5, 200, 8,
                  AggregateSpec::Sum(SmallUsa().columns.rating, "SUM(rating)"),
                  &error);
  EXPECT_FALSE(error.empty());
}

// --- fig12 regression fingerprint through crash + resume --------------------

// The monolith-era bit pattern (engine_regression_test.cc) must survive the
// full durability cycle: each of the three fixed-seed runs is written to a
// WAL, "killed" by truncating the log at an arbitrary byte, resumed in a
// fresh stack, and the resumed traces fold to the same fingerprint.
TEST(DurabilityRegression, Fig12FingerprintSurvivesCrashAndResume) {
  UsaOptions uopts;
  uopts.num_pois = 6000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa.columns.category, "restaurant"), "COUNT(restaurants)");

  uint64_t hash = 0;
  for (uint64_t seed = 42; seed < 45; ++seed) {
    const std::string dir = TestDir("fig12_" + std::to_string(seed));
    {
      Stack stack = BuildStack(Family::kLr, server, &sampler, seed, 4000, spec);
      DurableLogOptions options;
      options.dir = dir;
      options.checkpoint_every_rounds = 32;
      DurableEvidenceLog wal(options, stack.engine.get(), stack.client.get());
      RunEngine(stack.engine.get(), {.budget = 4000}, &wal);
      wal.Close();
    }
    // Kill at an arbitrary mid-record byte (~60% in, varied per seed).
    const fs::path segment = fs::path(dir) / WalSegmentName(0);
    ASSERT_TRUE(fs::exists(segment));
    const uint64_t cut = fs::file_size(segment) * 3 / 5 + 7 * seed;
    fs::resize_file(segment, cut);

    Stack stack = BuildStack(Family::kLr, server, &sampler, seed, 4000, spec);
    RecoveredRun rec = RecoverDurableRun(dir);
    ASSERT_TRUE(rec.error.empty()) << rec.error;
    EXPECT_GT(rec.torn_bytes, 0u);
    stack.engine->RestoreEvidence(rec.evidence);
    ASSERT_EQ(ApplyCheckpoint(rec, stack.engine.get(), stack.client.get()),
              "");
    DurableLogOptions options;
    options.dir = dir;
    options.checkpoint_every_rounds = 32;
    DurableEvidenceLog wal(options, stack.engine.get(), stack.client.get());
    RunEngine(stack.engine.get(), {.budget = 4000}, &wal);
    wal.Close();

    for (const TracePoint& tp : stack.query->trace()) {
      uint64_t bits;
      std::memcpy(&bits, &tp.estimate, sizeof bits);
      hash = MixHash(hash, tp.queries);
      hash = MixHash(hash, bits);
    }
  }
  // The constant from engine_regression_test.cc — the engine run loop and
  // the crash+resume path both reproduce the monolith bit pattern.
  EXPECT_EQ(hash, 0x8e13737b33817270ull);
}

// --- Two-process handoff (real fork + SIGKILL) ------------------------------

#if !defined(LBSAGG_TSAN)
TEST(DurabilityTwoProcess, SigkilledChildResumesBitIdenticallyInParent) {
  const AggregateSpec spec = AggregateSpec::Count();
  const uint64_t budget = 300, seed = 21, every = 4;
  const std::string dir = TestDir("fork");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: run the first 12 rounds durably, then die mid-flight with no
    // Close, no destructors — the genuine article.
    const UsaScenario& usa = SmallUsa();
    LbsServer server(usa.dataset.get(), {.max_k = 5});
    UniformSampler sampler(usa.dataset->box());
    Stack stack = BuildStack(Family::kLr, server, &sampler, seed, budget, spec);
    DurableLogOptions options;
    options.dir = dir;
    options.checkpoint_every_rounds = every;
    DurableEvidenceLog wal(options, stack.engine.get(), stack.client.get());
    if (!wal.ok()) _exit(3);
    RunEngine(stack.engine.get(), {.budget = budget, .max_rounds = 12}, &wal);
    std::raise(SIGKILL);
    _exit(4);  // unreachable
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << status;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Parent: the WAL the child left behind resumes to the oracle outcome.
  const std::string oracle_dir = TestDir("fork_oracle");
  const RunOutcome oracle =
      RunDurably(Family::kLr, oracle_dir, seed, budget, every, spec);
  const RunOutcome resumed =
      ResumeAndFinish(Family::kLr, dir, seed, budget, every, spec);
  ExpectSameOutcome(resumed, oracle, "two-process handoff");
}
#endif  // !LBSAGG_TSAN

// --- Service kill-and-reattach ----------------------------------------------

TEST(DurabilityService, SessionResumesViaResumeFrom) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  service::SessionSpec base;
  base.family = service::EstimatorFamily::kLr;
  base.budget = 300;
  base.seed = 17;
  base.checkpoint_every_rounds = 4;

  // Uninterrupted oracle session (no WAL).
  std::vector<RunResult> oracle;
  {
    service::EstimationService svc({{.meta = &server}});
    const service::SessionId id = svc.Submit(base);
    svc.RunUntilIdle();
    const service::SessionStatus status = svc.Poll(id);
    ASSERT_EQ(status.state, service::SessionState::kCompleted);
    oracle = status.results;
  }

  // "Interrupted" session: the round cap stops it mid-budget; its durable
  // log closes at the cap with a final checkpoint (service kill-and-
  // reattach; the arbitrary-kill-point matrix above covers hard kills).
  const std::string dir = TestDir("service");
  {
    service::EstimationService svc({{.meta = &server}});
    service::SessionSpec spec = base;
    spec.wal_dir = dir;
    spec.max_rounds = 10;
    const service::SessionId id = svc.Submit(spec);
    svc.RunUntilIdle();
    const service::SessionStatus status = svc.Poll(id);
    ASSERT_EQ(status.state, service::SessionState::kCompleted);
    ASSERT_EQ(status.rounds, 10u);
  }

  // Reattach in a brand-new service instance (the "new process").
  {
    service::EstimationService svc({{.meta = &server}});
    service::SessionSpec spec = base;
    spec.resume_from = dir;
    const service::SessionId id = svc.Submit(spec);
    svc.RunUntilIdle();
    const service::SessionStatus status = svc.Poll(id);
    ASSERT_EQ(status.state, service::SessionState::kCompleted)
        << status.detail;
    ASSERT_EQ(status.results.size(), oracle.size());
    for (size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_EQ(status.results[i].queries, oracle[i].queries);
      EXPECT_TRUE(SameBits(status.results[i].final_estimate,
                           oracle[i].final_estimate));
      ASSERT_EQ(status.results[i].trace.size(), oracle[i].trace.size());
      for (size_t j = 0; j < oracle[i].trace.size(); ++j) {
        EXPECT_EQ(status.results[i].trace[j].queries,
                  oracle[i].trace[j].queries);
        EXPECT_TRUE(SameBits(status.results[i].trace[j].estimate,
                             oracle[i].trace[j].estimate));
      }
    }
  }
}

TEST(DurabilityService, ResumeWithWrongFamilyIsRejected) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  const std::string dir = TestDir("service_mismatch");

  service::EstimationService svc({{.meta = &server}});
  service::SessionSpec spec;
  spec.family = service::EstimatorFamily::kLr;
  spec.budget = 200;
  spec.seed = 9;
  spec.wal_dir = dir;
  spec.max_rounds = 6;
  const service::SessionId first = svc.Submit(spec);
  svc.RunUntilIdle();
  ASSERT_EQ(svc.Poll(first).state, service::SessionState::kCompleted);

  service::SessionSpec wrong = spec;
  wrong.wal_dir.clear();
  wrong.resume_from = dir;
  wrong.family = service::EstimatorFamily::kNno;
  const service::SessionId second = svc.Submit(wrong);
  svc.RunUntilIdle();
  const service::SessionStatus status = svc.Poll(second);
  EXPECT_EQ(status.state, service::SessionState::kRejected);
  EXPECT_NE(status.detail.find("resume failed"), std::string::npos)
      << status.detail;
  EXPECT_TRUE(status.results.empty());
}

TEST(DurabilityService, AttachingAWalDoesNotPerturbTheSession) {
  const UsaScenario& usa = SmallUsa();
  LbsServer server(usa.dataset.get(), {.max_k = 5});

  service::SessionSpec spec;
  spec.family = service::EstimatorFamily::kNno;
  spec.budget = 150;
  spec.seed = 13;

  service::EstimationService svc({{.meta = &server}});
  const service::SessionId plain = svc.Submit(spec);
  spec.wal_dir = TestDir("service_observer");
  spec.checkpoint_every_rounds = 4;
  const service::SessionId logged = svc.Submit(spec);
  svc.RunUntilIdle();

  const service::SessionStatus a = svc.Poll(plain);
  const service::SessionStatus b = svc.Poll(logged);
  ASSERT_EQ(a.state, service::SessionState::kCompleted);
  ASSERT_EQ(b.state, service::SessionState::kCompleted);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(SameBits(a.results[i].final_estimate,
                         b.results[i].final_estimate));
    EXPECT_EQ(a.results[i].queries, b.results[i].queries);
  }
  // And the logged session's directory verifies clean.
  const WalReadResult read = ReadWal(spec.wal_dir);
  EXPECT_TRUE(read.error.empty()) << read.error;
  EXPECT_EQ(read.torn_bytes, 0u);
  EXPECT_GT(read.evidence.NumRounds(), 0u);
}

}  // namespace
}  // namespace engine
}  // namespace lbsagg
