#ifndef LBSAGG_ENGINE_LOG_WAL_H_
#define LBSAGG_ENGINE_LOG_WAL_H_

// Segment-file writer and reader for the durable evidence log
// (wal_format.h; DESIGN.md §4.14). The writer appends framed records with a
// write/fsync/rotate discipline in the tarantool WAL idiom: every record is
// written immediately, fsync policy is configurable (per-round by default —
// an EndRound record is the commit point of the evidence protocol), and
// segments rotate at round boundaries once they pass a size threshold. The
// reader accepts the longest intact prefix and reports everything after the
// first short or corrupt frame as a torn tail for recovery to truncate.
//
// Crash injection for the recovery tests rides the writer itself: a
// WalFailPoint can silently stop persisting bytes mid-record (the torn
// write a SIGKILL leaves behind) or fail the nth fsync (unsynced bytes are
// dropped, as a lost page cache would), so every recovery cut point is
// reproducible deterministically in-process.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/evidence_store.h"
#include "engine/log/wal_format.h"

namespace lbsagg {
namespace engine {

enum class FsyncMode : uint8_t {
  kNone = 0,   // never fsync (bench ablation; recovery still works from
               // whatever the OS persisted)
  kRound = 1,  // fsync once per committed round, at the EndRound record
  kEvery = 2,  // fsync after every record (paranoid mode)
};

const char* FsyncModeName(FsyncMode mode);

// Deterministic failure injection (off by default).
struct WalFailPoint {
  // Stop persisting once this many bytes (header included, across the
  // writer's lifetime) have reached the file — later bytes silently vanish,
  // leaving the torn mid-record tail a crash would. 0 = off.
  uint64_t drop_after_bytes = 0;
  // Fail the nth fsync (1-based): bytes written since the last successful
  // fsync are dropped from the file and the writer latches !ok(). 0 = off.
  uint64_t fail_fsync_at = 0;
};

struct WalWriterOptions {
  // Rotate to a new segment at the next round boundary once the current
  // segment exceeds this size.
  uint64_t segment_bytes = 4u << 20;
  FsyncMode fsync = FsyncMode::kRound;
  WalFailPoint failpoint = {};
};

struct WalWriterStats {
  uint64_t records = 0;
  uint64_t bytes = 0;  // framed bytes handed to the file (headers included)
  uint64_t fsyncs = 0;
  uint64_t rotations = 0;
};

// Appends evidence-protocol records to the segment directory. Creates the
// directory and the first segment when absent; otherwise appends to the
// highest-numbered segment (recovery must already have truncated any torn
// tail — WalWriter never rewinds). All errors latch: after the first I/O
// failure ok() is false, error() says why, and later appends are no-ops.
class WalWriter {
 public:
  // `next_round` is the round number the first appended record will carry —
  // 0 for a fresh run, the recovered round count on resume.
  WalWriter(std::string dir, WalWriterOptions options, uint64_t next_round);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  void AppendBeginRound(uint64_t round, const Vec2& sample_point);
  void AppendObservation(const Observation& observation);
  void AppendEndRound(const EvidenceRound& round);

  // Explicit fsync of the current segment (no-op when nothing is dirty).
  void Sync();
  // Sync + close the current segment; the writer is unusable afterwards.
  void Close();

  const WalWriterStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }

 private:
  void OpenForAppend(uint64_t next_round);
  void StartSegment(uint64_t start_round);
  void RotateIfNeeded(uint64_t next_round);
  void AppendRecord(const std::string& payload);
  void WriteBytes(const std::string& bytes);
  void DoFsync();
  void Fail(const std::string& message);

  std::string dir_;
  WalWriterOptions options_;
  int fd_ = -1;
  std::string segment_path_;
  uint64_t segment_bytes_ = 0;      // logical bytes appended to the segment
  uint64_t segment_persisted_ = 0;  // bytes that actually reached the file
  uint64_t synced_bytes_ = 0;       // segment bytes covered by the last fsync
  uint64_t persisted_total_ = 0;    // lifetime bytes actually written
  bool dirty_ = false;
  WalWriterStats stats_;
  std::string error_;
};

// One decoded record with its location, for the lbsagg_wal inspector.
struct WalRecord {
  WalRecordType type = WalRecordType::kBeginRound;
  size_t segment = 0;    // index into WalReadResult::segments
  uint64_t offset = 0;   // byte offset of the frame within the segment
  WalBeginRound begin;   // valid when type == kBeginRound
  Observation observation;  // valid when type == kObservation
  WalEndRound end;       // valid when type == kEndRound
};

struct WalSegmentInfo {
  std::string path;
  uint64_t start_round = 0;
  uint64_t file_bytes = 0;
  uint64_t valid_bytes = 0;  // header + intact records
  uint64_t records = 0;
};

// The committed rounds recovered from a WAL directory — an EvidenceSource
// the engine replays through the same machinery late consumers use.
class WalReplay : public EvidenceSource {
 public:
  size_t NumRounds() const override { return rounds_.size(); }
  const EvidenceRound& Round(size_t i) const override { return rounds_[i]; }
  const Observation* Observations(const EvidenceRound& r) const override {
    return r.num_observations == 0 ? nullptr
                                   : log_.data() + r.first_observation;
  }
  size_t NumObservations() const { return log_.size(); }

  void AppendRound(const EvidenceRound& round,
                   std::vector<Observation> observations);
  // Drops rounds [n, ...) — recovery rewinds to a checkpoint boundary.
  void TruncateTo(size_t n);

 private:
  std::vector<EvidenceRound> rounds_;
  std::vector<Observation> log_;
};

struct WalReadResult {
  // Empty error = the directory was readable (possibly containing no
  // segments at all: zero rounds, nothing torn).
  std::string error;

  WalReplay evidence;  // complete, protocol-consistent rounds in order
  std::vector<WalSegmentInfo> segments;

  // Torn-tail accounting: bytes past the last intact record (summed over
  // the boundary segment and any segments after it), and whether the tail
  // held a round that began but never committed.
  uint64_t torn_bytes = 0;
  bool torn_round = false;

  // Byte boundary of round r's BeginRound frame, for r < NumRounds():
  // (segment index, offset). Recovery truncates at these boundaries.
  std::vector<std::pair<size_t, uint64_t>> round_offsets;

  // Number of segments that opened validly (good header, unbroken round
  // chain); 0 means nothing on disk is usable. The commit boundary is the
  // byte just past the last committed round — the truncation point when the
  // tail (torn bytes or an uncommitted round) has to go.
  size_t valid_segments = 0;
  size_t commit_segment = 0;
  uint64_t commit_offset = kWalHeaderBytes;

  // Filled only when `keep_records`: every intact record in order.
  std::vector<WalRecord> records;
};

// Reads every segment of `dir` in start_round order. Never modifies disk.
WalReadResult ReadWal(const std::string& dir, bool keep_records = false);

// Physically truncates the log to exactly `rounds` committed rounds: later
// segments are deleted and the boundary segment is ftruncated (torn tails
// go with it). False + error on I/O failure.
bool TruncateWal(const std::string& dir, uint64_t rounds, std::string* error);

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_LOG_WAL_H_
