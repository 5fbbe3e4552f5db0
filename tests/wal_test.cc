// Unit tests of the durable evidence log's storage layer (engine/log/):
// segment/record format round-trips, the writer's fsync/rotate discipline,
// torn-tail detection and truncation, deterministic failure injection, the
// checkpoint file format, and the store→WAL→store round-trip that pins WAL
// framing to the in-memory evidence protocol — empty rounds and zero-round
// logs included, mirroring EvidenceStore::ToJson's edge-case contract.

#include "engine/log/wal.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/evidence_store.h"
#include "engine/log/checkpoint.h"
#include "engine/log/wal_format.h"
#include "util/binary_io.h"

namespace lbsagg {
namespace engine {
namespace {

namespace fs = std::filesystem;

// Fresh directory per test; gtest's TempDir is shared across the binary.
std::string TestDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("wal_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

Observation MakeObs(int tuple_id, double weight) {
  Observation obs;
  obs.tuple_id = tuple_id;
  obs.rank = tuple_id % 3;
  obs.h = 1 + tuple_id % 5;
  obs.has_location = tuple_id % 2 == 0;
  obs.location = {0.25 * tuple_id, -1.5 * tuple_id};
  obs.weight_form =
      tuple_id % 2 == 0 ? WeightForm::kInverseProbability : WeightForm::kProbability;
  obs.weight = weight;
  obs.exact = tuple_id % 3 == 0;
  obs.cost = 2 * static_cast<uint64_t>(tuple_id) + 1;
  return obs;
}

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

void ExpectSameObservation(const Observation& a, const Observation& b) {
  EXPECT_EQ(a.tuple_id, b.tuple_id);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.h, b.h);
  EXPECT_EQ(a.has_location, b.has_location);
  EXPECT_TRUE(SameBits(a.location.x, b.location.x));
  EXPECT_TRUE(SameBits(a.location.y, b.location.y));
  EXPECT_EQ(a.weight_form, b.weight_form);
  EXPECT_TRUE(SameBits(a.weight, b.weight));
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.cost, b.cost);
}

// Writes `rounds` rounds; round r carries r % 3 observations, so round 0 is
// the empty-round edge case (BeginRound immediately followed by EndRound).
void WriteRounds(WalWriter* writer, uint64_t rounds, uint64_t first = 0) {
  for (uint64_t r = first; r < first + rounds; ++r) {
    writer->AppendBeginRound(r, {1.0 + 0.5 * r, -2.0 * r});
    EvidenceRound round;
    round.round = r;
    round.sample_point = {1.0 + 0.5 * r, -2.0 * r};
    round.queries_after = 10 * (r + 1);
    round.num_observations = r % 3;
    for (uint64_t i = 0; i < round.num_observations; ++i) {
      writer->AppendObservation(
          MakeObs(static_cast<int>(10 * r + i), 0.1 * r + i + 0.5));
    }
    writer->AppendEndRound(round);
  }
}

// --- Format round-trips -----------------------------------------------------

TEST(WalFormat, SegmentAndCheckpointNamesRoundTrip) {
  EXPECT_EQ(WalSegmentName(0), "wal-0000000000000000.wal");
  EXPECT_EQ(WalSegmentName(0x1a2b), "wal-0000000000001a2b.wal");
  uint64_t round = 0;
  EXPECT_TRUE(ParseWalSegmentName("wal-0000000000001a2b.wal", &round));
  EXPECT_EQ(round, 0x1a2bu);
  EXPECT_FALSE(ParseWalSegmentName("wal-123.wal", &round));
  EXPECT_FALSE(ParseWalSegmentName("ckpt-0000000000000000.ckpt", &round));

  EXPECT_EQ(CheckpointName(64), "ckpt-0000000000000040.ckpt");
  EXPECT_TRUE(ParseCheckpointName("ckpt-0000000000000040.ckpt", &round));
  EXPECT_EQ(round, 64u);
  EXPECT_FALSE(ParseCheckpointName("wal-0000000000000040.wal", &round));
}

TEST(WalFormat, HeaderRoundTripsAndRejectsCorruption) {
  const std::string header = EncodeWalHeader(1234);
  ASSERT_EQ(header.size(), kWalHeaderBytes);
  uint64_t start = 0;
  EXPECT_TRUE(DecodeWalHeader(header, &start));
  EXPECT_EQ(start, 1234u);

  for (size_t i = 0; i < header.size(); ++i) {
    std::string bad = header;
    bad[i] ^= 0x40;
    EXPECT_FALSE(DecodeWalHeader(bad, &start)) << "flipped byte " << i;
  }
  EXPECT_FALSE(DecodeWalHeader(header.substr(0, kWalHeaderBytes - 1), &start));
}

TEST(WalFormat, ObservationPayloadRoundTripsBitIdentically) {
  Observation in = MakeObs(7, 0.1 + 0.2);  // 0.30000000000000004: ulp matters
  std::string payload;
  EncodeObservation(in, &payload);
  BinaryReader r(payload.data() + 1, payload.size() - 1);
  Observation out;
  ASSERT_TRUE(DecodeObservation(&r, &out));
  ExpectSameObservation(in, out);
}

// --- Writer / reader --------------------------------------------------------

TEST(WalWriterReader, RoundTripPreservesEveryField) {
  const std::string dir = TestDir("roundtrip");
  {
    WalWriter writer(dir, {}, 0);
    WriteRounds(&writer, 7);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
    EXPECT_EQ(writer.stats().records, 7u + (0 + 1 + 2) * 2 + 7u);
  }

  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_EQ(read.torn_bytes, 0u);
  EXPECT_FALSE(read.torn_round);
  ASSERT_EQ(read.evidence.NumRounds(), 7u);
  for (uint64_t r = 0; r < 7; ++r) {
    const EvidenceRound& round = read.evidence.Round(r);
    EXPECT_EQ(round.round, r);
    EXPECT_TRUE(SameBits(round.sample_point.x, 1.0 + 0.5 * r));
    EXPECT_EQ(round.queries_after, 10 * (r + 1));
    ASSERT_EQ(round.num_observations, r % 3);
    const Observation* obs = read.evidence.Observations(round);
    for (uint64_t i = 0; i < round.num_observations; ++i) {
      ExpectSameObservation(obs[i],
                            MakeObs(static_cast<int>(10 * r + i),
                                    0.1 * r + i + 0.5));
    }
  }
}

TEST(WalWriterReader, MissingAndEmptyDirectoriesReadAsZeroRounds) {
  const WalReadResult missing = ReadWal(TestDir("missing"));
  EXPECT_TRUE(missing.error.empty()) << missing.error;
  EXPECT_EQ(missing.evidence.NumRounds(), 0u);
  EXPECT_EQ(missing.segments.size(), 0u);

  // A writer that only ever wrote the segment header: still a clean log.
  const std::string dir = TestDir("headeronly");
  {
    WalWriter writer(dir, {}, 0);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
  }
  const WalReadResult read = ReadWal(dir);
  EXPECT_TRUE(read.error.empty()) << read.error;
  EXPECT_EQ(read.evidence.NumRounds(), 0u);
  EXPECT_EQ(read.torn_bytes, 0u);
  ASSERT_EQ(read.segments.size(), 1u);
  EXPECT_EQ(read.segments[0].file_bytes, kWalHeaderBytes);
}

TEST(WalWriterReader, RotationKeepsRoundsWithinSegments) {
  const std::string dir = TestDir("rotate");
  WalWriterOptions options;
  options.segment_bytes = 256;  // force several rotations
  {
    WalWriter writer(dir, options, 0);
    WriteRounds(&writer, 24);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
    EXPECT_GT(writer.stats().rotations, 1u);
  }
  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_EQ(read.evidence.NumRounds(), 24u);
  EXPECT_EQ(read.torn_bytes, 0u);
  ASSERT_GT(read.segments.size(), 2u);
  EXPECT_EQ(read.valid_segments, read.segments.size());
  // Rotation happens only at a BeginRound boundary, so each segment's file
  // name / header advertises exactly the round its first record carries.
  uint64_t expect_start = 0;
  for (size_t i = 0; i < read.segments.size(); ++i) {
    EXPECT_EQ(read.segments[i].start_round, expect_start);
    size_t rounds_in_segment = 0;
    for (const auto& [seg, offset] : read.round_offsets) {
      if (seg == i) ++rounds_in_segment;
    }
    expect_start += rounds_in_segment;
  }
  EXPECT_EQ(expect_start, 24u);
}

TEST(WalWriterReader, AppendsAcrossWriterInstances) {
  const std::string dir = TestDir("reopen");
  {
    WalWriter writer(dir, {}, 0);
    WriteRounds(&writer, 5);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
  }
  {
    WalWriter writer(dir, {}, 5);
    WriteRounds(&writer, 4, /*first=*/5);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
  }
  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_EQ(read.evidence.NumRounds(), 9u);
  EXPECT_EQ(read.torn_bytes, 0u);
  EXPECT_EQ(read.segments.size(), 1u);
}

// --- Torn tails and truncation ----------------------------------------------

TEST(WalRecovery, EveryBytePrefixYieldsACommittedPrefix) {
  const std::string dir = TestDir("prefix");
  {
    WalWriter writer(dir, {}, 0);
    WriteRounds(&writer, 6);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
  }
  const fs::path segment = fs::path(dir) / WalSegmentName(0);
  const uint64_t full = fs::file_size(segment);
  const WalReadResult oracle = ReadWal(dir);
  ASSERT_EQ(oracle.evidence.NumRounds(), 6u);

  const std::string cut_dir = TestDir("prefix_cut");
  for (uint64_t cut = 0; cut <= full; ++cut) {
    fs::remove_all(cut_dir);
    fs::create_directories(cut_dir);
    fs::copy_file(segment, fs::path(cut_dir) / WalSegmentName(0));
    fs::resize_file(fs::path(cut_dir) / WalSegmentName(0), cut);

    const WalReadResult read = ReadWal(cut_dir);
    ASSERT_TRUE(read.error.empty()) << "cut=" << cut << ": " << read.error;
    // The committed prefix is exactly the oracle's first NumRounds() rounds.
    ASSERT_LE(read.evidence.NumRounds(), 6u) << "cut=" << cut;
    for (size_t r = 0; r < read.evidence.NumRounds(); ++r) {
      EXPECT_EQ(read.evidence.Round(r).queries_after,
                oracle.evidence.Round(r).queries_after)
          << "cut=" << cut;
    }
    if (cut < full) {
      // Everything validly read plus the torn remainder accounts for every
      // byte of the prefix (header bytes only exist once the header fits).
      const uint64_t usable =
          read.segments.empty() ? 0 : read.segments[0].valid_bytes;
      EXPECT_EQ(usable + read.torn_bytes, read.segments.empty() ? 0 : cut)
          << "cut=" << cut;
    } else {
      EXPECT_EQ(read.torn_bytes, 0u);
    }
  }
}

TEST(WalRecovery, CorruptMidFileLatchesEverythingAfterAsTorn) {
  const std::string dir = TestDir("midflip");
  {
    WalWriter writer(dir, {}, 0);
    WriteRounds(&writer, 6);
    writer.Close();
  }
  const fs::path segment = fs::path(dir) / WalSegmentName(0);
  // Flip one byte a third of the way into the records.
  const uint64_t size = fs::file_size(segment);
  const uint64_t victim = kWalHeaderBytes + (size - kWalHeaderBytes) / 3;
  {
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim));
    char c = 0;
    f.read(&c, 1);
    c ^= 0x20;
    f.seekp(static_cast<std::streamoff>(victim));
    f.write(&c, 1);
  }
  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_LT(read.evidence.NumRounds(), 6u);
  EXPECT_GT(read.torn_bytes, 0u);
  const uint64_t usable = read.segments[0].valid_bytes;
  EXPECT_EQ(usable + read.torn_bytes, size);
}

TEST(WalRecovery, TruncateWalCutsToExactRoundBoundary) {
  const std::string dir = TestDir("truncate");
  {
    WalWriter writer(dir, {.segment_bytes = 256}, 0);
    WriteRounds(&writer, 24);
    writer.Close();
  }
  std::string error;
  ASSERT_TRUE(TruncateWal(dir, 10, &error)) << error;
  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_EQ(read.evidence.NumRounds(), 10u);
  EXPECT_EQ(read.torn_bytes, 0u);
  for (uint64_t r = 0; r < 10; ++r) {
    EXPECT_EQ(read.evidence.Round(r).queries_after, 10 * (r + 1));
  }
  // A writer reopened after truncation appends round 10 cleanly.
  {
    WalWriter writer(dir, {}, 10);
    WriteRounds(&writer, 1, /*first=*/10);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
  }
  EXPECT_EQ(ReadWal(dir).evidence.NumRounds(), 11u);

  // Truncating past the committed count is an error, not silent data loss.
  EXPECT_FALSE(TruncateWal(dir, 99, &error));
  EXPECT_FALSE(error.empty());

  // Truncating to zero rounds leaves a recoverable empty log.
  ASSERT_TRUE(TruncateWal(dir, 0, &error)) << error;
  EXPECT_EQ(ReadWal(dir).evidence.NumRounds(), 0u);
}

// --- Failure injection ------------------------------------------------------

TEST(WalFailpoints, DropAfterBytesLeavesATornTailRecoveryTruncates) {
  const std::string dir = TestDir("dropbytes");
  WalWriterOptions options;
  options.failpoint.drop_after_bytes = 300;
  {
    WalWriter writer(dir, options, 0);
    WriteRounds(&writer, 10);
    // No Close: the crash this failpoint models never gets one. The fd is
    // closed by the destructor without another checkpointable sync.
  }
  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_LT(read.evidence.NumRounds(), 10u);
  EXPECT_GT(read.torn_bytes, 0u);
  const uint64_t committed = read.evidence.NumRounds();

  std::string error;
  ASSERT_TRUE(TruncateWal(dir, committed, &error)) << error;
  const WalReadResult clean = ReadWal(dir);
  EXPECT_EQ(clean.evidence.NumRounds(), committed);
  EXPECT_EQ(clean.torn_bytes, 0u);
}

TEST(WalFailpoints, FsyncFailureDropsUnsyncedBytesAndLatchesTheWriter) {
  const std::string dir = TestDir("failfsync");
  WalWriterOptions options;
  options.failpoint.fail_fsync_at = 3;  // two rounds commit, the third dies
  WalWriter writer(dir, options, 0);
  WriteRounds(&writer, 6);
  EXPECT_FALSE(writer.ok());
  EXPECT_NE(writer.error().find("fsync"), std::string::npos) << writer.error();
  writer.Close();  // no-op after the latch

  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  // Exactly the rounds covered by the two successful fsyncs survive.
  EXPECT_EQ(read.evidence.NumRounds(), 2u);
  EXPECT_EQ(read.torn_bytes, 0u);
}

// --- Checkpoint files -------------------------------------------------------

CheckpointData MakeCheckpoint(uint64_t round) {
  CheckpointData data;
  data.round = round;
  data.observations = 3 * round;
  data.queries_used = 17 * round + 1;
  data.resolver_name = "lr";
  data.resolver_state = std::string("rng\x00state", 9);
  data.aggregates.push_back({"COUNT(*)", 0xabcdef1234567890ull, 41.5});
  data.aggregates.push_back({"SUM(rating)", 0x1111222233334444ull, -0.125});
  return data;
}

// Frames `payload` the way EncodeCheckpoint does (magic, length, valid CRC),
// so a test can hand DecodeCheckpoint a payload that passes every integrity
// check and must be rejected on its content alone.
std::string FrameCheckpointPayload(const std::string& payload) {
  std::string out(kCheckpointMagic, sizeof(kCheckpointMagic));
  BinaryWriter header(&out);
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));
  return out + payload;
}

TEST(Checkpoint, EncodeDecodeRoundTripsAndRejectsDamage) {
  const CheckpointData in = MakeCheckpoint(12);
  const std::string bytes = EncodeCheckpoint(in);

  CheckpointData out;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &out));
  EXPECT_EQ(out.round, in.round);
  EXPECT_EQ(out.observations, in.observations);
  EXPECT_EQ(out.queries_used, in.queries_used);
  EXPECT_EQ(out.resolver_name, in.resolver_name);
  EXPECT_EQ(out.resolver_state, in.resolver_state);
  ASSERT_EQ(out.aggregates.size(), 2u);
  EXPECT_EQ(out.aggregates[0].name, "COUNT(*)");
  EXPECT_EQ(out.aggregates[0].trace_hash, 0xabcdef1234567890ull);
  EXPECT_TRUE(SameBits(out.aggregates[1].estimate, -0.125));

  EXPECT_FALSE(DecodeCheckpoint(bytes.substr(0, bytes.size() - 1), &out));
  EXPECT_FALSE(DecodeCheckpoint(bytes + "x", &out));  // trailing garbage
  std::string bad = bytes;
  bad[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeCheckpoint(bad, &out));

  // An aggregate count the payload cannot hold: rejected, not allocated.
  std::string huge;
  BinaryWriter w(&huge);
  w.PutU32(kCheckpointVersion);
  w.PutU64(12);  // round
  w.PutU64(36);  // observations
  w.PutU64(205);  // queries_used
  w.PutString("lr");
  w.PutString("");
  w.PutU32(0xFFFFFFFFu);
  EXPECT_FALSE(DecodeCheckpoint(FrameCheckpointPayload(huge), &out));

  // A version-1 payload, with the 8-byte client-cache hash slot that
  // version 2 dropped: rejected by version, so recovery treats the file as
  // unusable and re-executes from the last usable checkpoint or round 0.
  std::string v1;
  BinaryWriter w1(&v1);
  w1.PutU32(1);
  w1.PutU64(12);  // round
  w1.PutU64(36);  // observations
  w1.PutU64(205);  // queries_used
  w1.PutU64(0);  // the dropped cache hash
  w1.PutString("lr");
  w1.PutString("");
  w1.PutU32(0);
  EXPECT_FALSE(DecodeCheckpoint(FrameCheckpointPayload(v1), &out));
}

TEST(Checkpoint, ScanOrdersByRoundAndFlagsCorruptFiles) {
  const std::string dir = TestDir("ckptscan");
  fs::create_directories(dir);
  std::string error;
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeCheckpoint(64), &error)) << error;
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeCheckpoint(0), &error)) << error;
  ASSERT_TRUE(WriteCheckpointFile(dir, MakeCheckpoint(128), &error)) << error;
  {
    std::ofstream bad(fs::path(dir) / CheckpointName(32), std::ios::binary);
    bad << "LBSCKPT1 this is not a checkpoint";
  }

  const std::vector<CheckpointScanEntry> scan = ScanCheckpoints(dir);
  ASSERT_EQ(scan.size(), 4u);
  EXPECT_EQ(scan[0].round, 0u);
  EXPECT_TRUE(scan[0].valid);
  EXPECT_EQ(scan[1].round, 32u);
  EXPECT_FALSE(scan[1].valid);
  EXPECT_EQ(scan[2].round, 64u);
  EXPECT_TRUE(scan[2].valid);
  EXPECT_EQ(scan[3].round, 128u);
  EXPECT_TRUE(scan[3].valid);
  EXPECT_EQ(scan[2].data.queries_used, 17u * 64 + 1);
}

TEST(Checkpoint, TraceFingerprintMatchesTheRegressionMixer) {
  std::vector<TracePoint> trace = {{10, 1.5}, {20, 2.5}};
  uint64_t expect = MixHash(0, trace.size());
  for (const TracePoint& tp : trace) {
    uint64_t bits;
    std::memcpy(&bits, &tp.estimate, sizeof bits);
    expect = MixHash(expect, tp.queries);
    expect = MixHash(expect, bits);
  }
  EXPECT_EQ(TraceFingerprint(trace), expect);
  EXPECT_NE(TraceFingerprint(trace), TraceFingerprint({{10, 1.5}}));
}

// --- Store ↔ WAL parity -----------------------------------------------------

// Forwards the evidence protocol into a WalWriter — the storage half of
// DurableEvidenceLog, without needing an engine/client stack.
class WriterSink : public EvidenceSink {
 public:
  explicit WriterSink(WalWriter* writer) : writer_(writer) {}
  void OnBeginRound(uint64_t round, const Vec2& sample_point) override {
    writer_->AppendBeginRound(round, sample_point);
  }
  void OnAppend(uint64_t round, const Observation& observation) override {
    (void)round;
    writer_->AppendObservation(observation);
  }
  void OnEndRound(const EvidenceRound& round) override {
    writer_->AppendEndRound(round);
  }

 private:
  WalWriter* writer_;
};

TEST(WalStoreParity, StoreThroughWalBackToStoreIsLossless) {
  const std::string dir = TestDir("parity");
  EvidenceStore original;
  {
    WalWriter writer(dir, {}, 0);
    WriterSink sink(&writer);
    original.set_sink(&sink);

    // Round 0: two observations. Round 1: EMPTY (BeginRound straight to
    // EndRound — a sample point that resolved no tuples). Round 2: one.
    original.BeginRound({0.5, 0.25});
    original.Append(MakeObs(1, 3.5));
    original.Append(MakeObs(2, 4.5));
    original.EndRound(9);
    original.BeginRound({-1.0, 2.0});
    original.EndRound(13);
    original.BeginRound({7.0, -3.0});
    original.Append(MakeObs(3, 5.5));
    original.EndRound(21);

    original.set_sink(nullptr);
    writer.Close();
    ASSERT_TRUE(writer.ok()) << writer.error();
  }

  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EvidenceStore replayed;
  replayed.RestoreFrom(read.evidence);

  ASSERT_EQ(replayed.num_rounds(), original.num_rounds());
  ASSERT_EQ(replayed.num_observations(), original.num_observations());
  for (size_t r = 0; r < original.num_rounds(); ++r) {
    const EvidenceRound& a = original.round(r);
    const EvidenceRound& b = replayed.round(r);
    EXPECT_EQ(a.round, b.round);
    EXPECT_TRUE(SameBits(a.sample_point.x, b.sample_point.x));
    EXPECT_TRUE(SameBits(a.sample_point.y, b.sample_point.y));
    EXPECT_EQ(a.queries_after, b.queries_after);
    EXPECT_EQ(a.first_observation, b.first_observation);
    ASSERT_EQ(a.num_observations, b.num_observations);
    for (size_t i = 0; i < a.num_observations; ++i) {
      ExpectSameObservation(original.observations(a)[i],
                            replayed.observations(b)[i]);
    }
  }
  // The JSON view agrees too — the framing audit at the serialization edge.
  EXPECT_EQ(replayed.ToJson(), original.ToJson());
  EXPECT_EQ(original.ToJson(),
            "{\"rounds\":3,\"observations\":3,\"queries\":21}");
}

// The satellite regression pair: zero-round stores and empty rounds
// serialize losslessly and identically through both representations.
TEST(WalStoreParity, ZeroRoundAndEmptyRoundFramingIsPreserved) {
  EvidenceStore empty;
  EXPECT_EQ(empty.ToJson(),
            "{\"rounds\":0,\"observations\":0,\"queries\":0}");

  const std::string dir = TestDir("emptyrounds");
  EvidenceStore original;
  {
    WalWriter writer(dir, {}, 0);
    WriterSink sink(&writer);
    original.set_sink(&sink);
    // Nothing but empty rounds: rounds advance, observations stay 0.
    original.BeginRound({1.0, 1.0});
    original.EndRound(4);
    original.BeginRound({2.0, 2.0});
    original.EndRound(8);
    original.set_sink(nullptr);
    writer.Close();
  }
  EXPECT_EQ(original.ToJson(),
            "{\"rounds\":2,\"observations\":0,\"queries\":8}");

  const WalReadResult read = ReadWal(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  ASSERT_EQ(read.evidence.NumRounds(), 2u);
  EXPECT_EQ(read.evidence.Round(0).num_observations, 0u);
  EXPECT_EQ(read.evidence.Observations(read.evidence.Round(0)), nullptr);

  EvidenceStore replayed;
  replayed.RestoreFrom(read.evidence);
  EXPECT_EQ(replayed.ToJson(), original.ToJson());
  EXPECT_EQ(replayed.round(1).queries_after, 8u);
}

}  // namespace
}  // namespace engine
}  // namespace lbsagg
