// lbsagg_wal — inspector for durable evidence log directories
// (engine/log/, DESIGN.md §4.14). Read-only: it never truncates or repairs.
//
//   lbsagg_wal stats  <dir>   segment/checkpoint inventory + round totals
//   lbsagg_wal verify <dir>   exit 0 iff the log is clean (no torn tail,
//                             no corrupt checkpoints) — the CI durability
//                             job's post-crash assertion is `! verify` on a
//                             killed run and `verify` after resume
//   lbsagg_wal dump   <dir>   every intact record, one line each
//
// The torn tail is reported, not an error, for `stats` and `dump`: a log a
// crash just tore is a *healthy* input to recovery.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "engine/log/checkpoint.h"
#include "engine/log/wal.h"

namespace lbsagg {
namespace engine {
namespace {

const char* WeightFormName(WeightForm form) {
  switch (form) {
    case WeightForm::kInverseProbability:
      return "inv-prob";
    case WeightForm::kProbability:
      return "prob";
  }
  return "?";
}

void PrintSegments(const WalReadResult& wal) {
  for (size_t i = 0; i < wal.segments.size(); ++i) {
    const WalSegmentInfo& seg = wal.segments[i];
    std::printf("segment %zu: %s  start_round=%" PRIu64
                "  bytes=%" PRIu64 " (%" PRIu64 " valid)  records=%" PRIu64
                "%s\n",
                i, seg.path.c_str(), seg.start_round, seg.file_bytes,
                seg.valid_bytes, seg.records,
                i >= wal.valid_segments ? "  [unusable]" : "");
  }
}

void PrintCheckpoints(const std::string& dir) {
  for (const CheckpointScanEntry& entry : ScanCheckpoints(dir)) {
    if (!entry.valid) {
      std::printf("checkpoint %s: CORRUPT\n", entry.path.c_str());
      continue;
    }
    std::printf("checkpoint %s: round=%" PRIu64 " observations=%" PRIu64
                " queries=%" PRIu64 " resolver=%s aggregates=%zu\n",
                entry.path.c_str(), entry.data.round, entry.data.observations,
                entry.data.queries_used, entry.data.resolver_name.c_str(),
                entry.data.aggregates.size());
    for (const AggregateCheckpoint& agg : entry.data.aggregates) {
      std::printf("  aggregate %s: estimate=%.17g trace=%016" PRIx64 "\n",
                  agg.name.c_str(), agg.estimate, agg.trace_hash);
    }
  }
}

int RunStats(const std::string& dir) {
  WalReadResult wal = ReadWal(dir);
  if (!wal.error.empty()) {
    std::fprintf(stderr, "error: %s\n", wal.error.c_str());
    return 1;
  }
  std::printf("wal dir: %s\n", dir.c_str());
  PrintSegments(wal);
  std::printf("committed rounds: %zu (%zu observations)\n",
              wal.evidence.NumRounds(), wal.evidence.NumObservations());
  if (wal.evidence.NumRounds() > 0) {
    const EvidenceRound& last =
        wal.evidence.Round(wal.evidence.NumRounds() - 1);
    std::printf("queries after last commit: %" PRIu64 "\n",
                last.queries_after);
  }
  std::printf("torn tail: %" PRIu64 " bytes%s\n", wal.torn_bytes,
              wal.torn_round ? " (uncommitted round)" : "");
  PrintCheckpoints(dir);
  return 0;
}

int RunVerify(const std::string& dir) {
  WalReadResult wal = ReadWal(dir);
  if (!wal.error.empty()) {
    std::fprintf(stderr, "error: %s\n", wal.error.c_str());
    return 1;
  }
  int problems = 0;
  if (wal.valid_segments != wal.segments.size()) {
    std::printf("FAIL: %zu of %zu segments unusable\n",
                wal.segments.size() - wal.valid_segments,
                wal.segments.size());
    ++problems;
  }
  if (wal.torn_bytes > 0) {
    std::printf("FAIL: torn tail of %" PRIu64 " bytes%s\n", wal.torn_bytes,
                wal.torn_round ? " (uncommitted round)" : "");
    ++problems;
  }
  uint64_t covered = 0, corrupt = 0, total = 0;
  for (const CheckpointScanEntry& entry : ScanCheckpoints(dir)) {
    ++total;
    if (!entry.valid) {
      std::printf("FAIL: corrupt checkpoint %s\n", entry.path.c_str());
      ++corrupt;
      continue;
    }
    if (entry.data.round > wal.evidence.NumRounds()) {
      std::printf("FAIL: checkpoint %s at round %" PRIu64
                  " past the %zu committed rounds\n",
                  entry.path.c_str(), entry.data.round,
                  wal.evidence.NumRounds());
      ++problems;
      continue;
    }
    ++covered;
  }
  problems += static_cast<int>(corrupt);
  std::printf("%s: %zu rounds, %zu segments, %" PRIu64 "/%" PRIu64
              " checkpoints usable\n",
              problems == 0 ? "OK" : "CORRUPT", wal.evidence.NumRounds(),
              wal.segments.size(), covered, total);
  return problems == 0 ? 0 : 2;
}

int RunDump(const std::string& dir) {
  WalReadResult wal = ReadWal(dir, /*keep_records=*/true);
  if (!wal.error.empty()) {
    std::fprintf(stderr, "error: %s\n", wal.error.c_str());
    return 1;
  }
  for (const WalRecord& rec : wal.records) {
    switch (rec.type) {
      case WalRecordType::kBeginRound:
        std::printf("%zu@%-8" PRIu64 " begin  round=%" PRIu64
                    " sample=(%.17g, %.17g)\n",
                    rec.segment, rec.offset, rec.begin.round,
                    rec.begin.sample_point.x, rec.begin.sample_point.y);
        break;
      case WalRecordType::kObservation:
        std::printf("%zu@%-8" PRIu64 " obs    tuple=%d rank=%d h=%d "
                    "weight=%.17g (%s)%s cost=%" PRIu64 "\n",
                    rec.segment, rec.offset, rec.observation.tuple_id,
                    rec.observation.rank, rec.observation.h,
                    rec.observation.weight,
                    WeightFormName(rec.observation.weight_form),
                    rec.observation.exact ? " exact" : "", rec.observation.cost);
        break;
      case WalRecordType::kEndRound:
        std::printf("%zu@%-8" PRIu64 " end    round=%" PRIu64
                    " queries_after=%" PRIu64 " observations=%" PRIu64 "\n",
                    rec.segment, rec.offset, rec.end.round,
                    rec.end.queries_after, rec.end.num_observations);
        break;
    }
  }
  if (wal.torn_bytes > 0) {
    std::printf("-- torn tail: %" PRIu64 " bytes%s\n", wal.torn_bytes,
                wal.torn_round ? " (uncommitted round)" : "");
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: lbsagg_wal <stats|verify|dump> <wal-dir>\n"
                 "inspect a durable evidence log (read-only)\n");
    return 1;
  }
  const std::string mode = argv[1];
  const std::string dir = argv[2];
  if (mode == "stats") return RunStats(dir);
  if (mode == "verify") return RunVerify(dir);
  if (mode == "dump") return RunDump(dir);
  std::fprintf(stderr, "error: unknown mode '%s'\n", mode.c_str());
  return 1;
}

}  // namespace
}  // namespace engine
}  // namespace lbsagg

int main(int argc, char** argv) { return lbsagg::engine::Main(argc, argv); }
