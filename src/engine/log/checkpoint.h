#ifndef LBSAGG_ENGINE_LOG_CHECKPOINT_H_
#define LBSAGG_ENGINE_LOG_CHECKPOINT_H_

// Round-aligned checkpoints of the estimation state (DESIGN.md §4.14). A
// checkpoint at round R captures everything needed to continue *after* R
// committed rounds without re-resolving them: the resolver's opaque state
// blob (RNG, localization history / probability caches, counters), the
// client's interface-query counter, and per-aggregate fold fingerprints so
// recovery can verify the replayed folds match the state the checkpoint was
// taken against. Evidence itself is NOT in the checkpoint — it lives in the
// WAL, and recovery replays rounds [0, R) through the engine's normal
// late-consumer machinery.
//
// File `ckpt-<16 hex round>.ckpt`, written via temp-file + rename so a
// crash mid-checkpoint leaves either the old set or the new set, never a
// half-written file that parses:
//
//   magic "LBSCKPT1" | payload length (u32) | crc32(payload) | payload
//
// Recovery scans all checkpoint files, ignores corrupt ones, and resumes
// from the newest valid checkpoint whose round is covered by the WAL.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace_point.h"

namespace lbsagg {
namespace engine {

inline constexpr char kCheckpointMagic[8] = {'L', 'B', 'S', 'C',
                                             'K', 'P', 'T', '1'};
inline constexpr uint32_t kCheckpointVersion = 2;

// Order-sensitive fingerprint of a value sequence (the same mixing step the
// regression harness uses for trace fingerprints).
inline uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// Fingerprint of an aggregate's full trace: length, then every
// (queries, estimate-bit-pattern) pair in order. Bit-identical replay is
// the durability contract, so the raw IEEE bits go into the hash.
uint64_t TraceFingerprint(const std::vector<TracePoint>& trace);

struct AggregateCheckpoint {
  std::string name;          // AggregateSpec::name — positional match check
  uint64_t trace_hash = 0;   // TraceFingerprint at checkpoint time
  double estimate = 0.0;     // running estimate, for the inspector
};

struct CheckpointData {
  uint64_t round = 0;         // committed rounds at the boundary
  uint64_t observations = 0;  // cumulative observations in those rounds
  uint64_t queries_used = 0;  // client's interface-query counter
  std::string resolver_name;   // CellResolver::name() — family match check
  std::string resolver_state;  // CellResolver::SaveState blob
  std::vector<AggregateCheckpoint> aggregates;
};

std::string EncodeCheckpoint(const CheckpointData& data);
bool DecodeCheckpoint(std::string_view bytes, CheckpointData* data);

// Atomically writes `dir/ckpt-<round>.ckpt` (temp file + fsync + rename +
// directory fsync). False + error on I/O failure.
bool WriteCheckpointFile(const std::string& dir, const CheckpointData& data,
                         std::string* error);

// Reads + validates one checkpoint file; false on I/O error or corruption.
bool ReadCheckpointFile(const std::string& path, CheckpointData* data);

struct CheckpointScanEntry {
  std::string path;
  uint64_t round = 0;  // from the file name
  bool valid = false;  // decoded + crc-checked + name/payload rounds agree
  CheckpointData data;  // filled only when valid
};

// All checkpoint files of `dir` in ascending round order, each validated.
// Corrupt files are listed with valid=false so recovery can skip (and
// delete) them rather than fail.
std::vector<CheckpointScanEntry> ScanCheckpoints(const std::string& dir);

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_LOG_CHECKPOINT_H_
