#ifndef LBSAGG_ENGINE_LOG_DURABLE_LOG_H_
#define LBSAGG_ENGINE_LOG_DURABLE_LOG_H_

// The durable evidence log (DESIGN.md §4.14): glues the WAL writer, the
// round-aligned checkpoints, and the engine's evidence seam into a
// kill-anywhere / resume-bit-identically contract.
//
// Writing side — attach a DurableEvidenceLog to a live engine:
//
//   engine::DurableEvidenceLog wal({.dir = wal_dir}, &engine, &client);
//   RunEngine(&engine, {.budget = budget}, &wal);  // MaybeCheckpoint per round
//   wal.Close();  // final checkpoint; also done by the destructor
//
// Reading side — resume after a crash (same process or a new one):
//
//   engine::RecoveredRun rec = engine::RecoverDurableRun(wal_dir);
//   // build sampler/client/resolver/engine exactly as the original run did
//   engine.RestoreEvidence(rec.evidence);     // replay rounds [0, R)
//   engine.AddAggregate(spec);                // same specs, same order
//   std::string err = engine::ApplyCheckpoint(rec, &engine, &client);
//   // err empty → attach a new DurableEvidenceLog and keep stepping
//
// Why this is bit-identical: a checkpoint at round R captures the resolver
// state *after* R committed rounds; recovery truncates the WAL back to the
// R-round boundary (dropping any committed-but-post-checkpoint rounds, the
// torn tail, and any uncommitted round), replays [0, R) through the
// engine's late-consumer machinery (folds are a pure function of the
// evidence), restores the resolver/client state, and re-executes rounds
// R, R+1, ... — which are a pure function of (resolver state, service) and
// therefore identical to the uninterrupted run's.

#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "engine/log/checkpoint.h"
#include "engine/log/wal.h"
#include "lbs/client.h"

namespace lbsagg {
namespace engine {

struct DurableLogOptions {
  std::string dir;  // WAL directory (segments + checkpoints); required
  // Checkpoint every N committed rounds (0 = only at Close). The WAL makes
  // *evidence* durable every round; checkpoints only bound how many rounds
  // recovery must re-execute.
  uint64_t checkpoint_every_rounds = 64;
  uint64_t segment_bytes = 4u << 20;
  FsyncMode fsync = FsyncMode::kRound;
  WalFailPoint failpoint = {};
};

// EvidenceSink that mirrors every committed protocol event into the WAL and
// writes round-aligned checkpoints. Attaches itself to the engine's store
// on construction (detaches on Close/destruction); the engine and client
// must outlive it.
class DurableEvidenceLog : public EvidenceSink {
 public:
  DurableEvidenceLog(DurableLogOptions options, EstimationEngine* engine,
                     LbsClient* client);
  ~DurableEvidenceLog() override;

  DurableEvidenceLog(const DurableEvidenceLog&) = delete;
  DurableEvidenceLog& operator=(const DurableEvidenceLog&) = delete;

  bool ok() const { return error_.empty() && writer_->ok(); }
  std::string error() const {
    return !error_.empty() ? error_ : writer_->error();
  }

  // EvidenceSink — called by the store as the resolver commits rounds.
  void OnBeginRound(uint64_t round, const Vec2& sample_point) override;
  void OnAppend(uint64_t round, const Observation& observation) override;
  void OnEndRound(const EvidenceRound& round) override;

  // Round-aligned checkpoint policy: call between engine Steps (never from
  // inside the sink callbacks — aggregates fold *after* EndRound commits,
  // and a checkpoint must capture post-fold state).
  void MaybeCheckpoint();
  void Checkpoint();

  // Final checkpoint + sync + detach from the engine. Idempotent.
  void Close();

  const WalWriterStats& wal_stats() const { return writer_->stats(); }
  uint64_t checkpoints_written() const { return checkpoints_written_; }

 private:
  DurableLogOptions options_;
  EstimationEngine* engine_;
  LbsClient* client_;
  std::unique_ptr<WalWriter> writer_;
  uint64_t rounds_since_checkpoint_ = 0;
  uint64_t checkpoints_written_ = 0;
  bool closed_ = false;
  std::string error_;
};

// Builds the checkpoint record for the engine/client pair's current state
// (exposed for the inspector and tests; DurableEvidenceLog uses it too).
CheckpointData BuildCheckpoint(const EstimationEngine& engine,
                               const LbsClient& client);

// What RecoverDurableRun hands back: the state of the directory after
// disk-level recovery (torn tail truncated, WAL rewound to the chosen
// checkpoint's round boundary, stale/corrupt checkpoints deleted).
struct RecoveredRun {
  std::string error;  // non-empty → the directory is unusable

  // The chosen checkpoint. found_checkpoint=false means none was usable:
  // checkpoint is all-defaults (round 0) and the run restarts from scratch
  // — still bit-identical, the WAL was truncated to zero rounds.
  CheckpointData checkpoint;
  bool found_checkpoint = false;

  // Evidence of rounds [0, checkpoint.round), to replay into the engine.
  WalReplay evidence;

  // Forensics for logs/inspector: bytes cut from the torn tail, committed
  // rounds discarded because they postdate the checkpoint (they will be
  // re-executed), and checkpoint files deleted as stale or corrupt.
  uint64_t torn_bytes = 0;
  uint64_t discarded_rounds = 0;
  uint64_t dropped_checkpoints = 0;
};

// Disk-level recovery of a WAL directory (idempotent; a directory that was
// cleanly closed recovers to exactly its final state). A missing or empty
// directory recovers to a fresh run (round 0, no error).
RecoveredRun RecoverDurableRun(const std::string& dir);

// Applies a recovered checkpoint to a freshly built stack. Call AFTER
// engine->RestoreEvidence(rec.evidence) and after registering the same
// aggregates in the same order as the original run. Restores resolver and
// client state and verifies the replayed folds against the checkpoint's
// fingerprints. Returns "" on success, else a diagnostic (the run must not
// proceed: state would diverge from the interrupted run).
std::string ApplyCheckpoint(const RecoveredRun& rec, EstimationEngine* engine,
                            LbsClient* client);

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_LOG_DURABLE_LOG_H_
