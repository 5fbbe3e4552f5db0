#include "engine/log/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "engine/log/wal_format.h"
#include "util/binary_io.h"

namespace lbsagg {
namespace engine {

namespace fs = std::filesystem;

namespace {

constexpr size_t kCheckpointHeaderBytes = 16;  // magic + len + crc
constexpr uint64_t kMaxCheckpointBytes = 1u << 28;

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

bool SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t TraceFingerprint(const std::vector<TracePoint>& trace) {
  uint64_t h = MixHash(0, trace.size());
  for (const TracePoint& tp : trace) {
    h = MixHash(h, tp.queries);
    h = MixHash(h, DoubleBits(tp.estimate));
  }
  return h;
}

std::string EncodeCheckpoint(const CheckpointData& data) {
  std::string payload;
  BinaryWriter w(&payload);
  w.PutU32(kCheckpointVersion);
  w.PutU64(data.round);
  w.PutU64(data.observations);
  w.PutU64(data.queries_used);
  w.PutString(data.resolver_name);
  w.PutString(data.resolver_state);
  w.PutU32(static_cast<uint32_t>(data.aggregates.size()));
  for (const AggregateCheckpoint& agg : data.aggregates) {
    w.PutString(agg.name);
    w.PutU64(agg.trace_hash);
    w.PutF64(agg.estimate);
  }

  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  BinaryWriter header(&out);
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));
  out.append(payload);
  return out;
}

bool DecodeCheckpoint(std::string_view bytes, CheckpointData* data) {
  if (bytes.size() < kCheckpointHeaderBytes) return false;
  if (std::string_view(bytes.data(), sizeof(kCheckpointMagic)) !=
      std::string_view(kCheckpointMagic, sizeof(kCheckpointMagic))) {
    return false;
  }
  BinaryReader header(bytes.data() + sizeof(kCheckpointMagic), 8);
  uint32_t len = 0, crc = 0;
  header.GetU32(&len);
  header.GetU32(&crc);
  if (len != bytes.size() - kCheckpointHeaderBytes) return false;
  const std::string_view payload(bytes.data() + kCheckpointHeaderBytes, len);
  if (Crc32(payload) != crc) return false;

  BinaryReader r(payload);
  uint32_t version = 0;
  if (!r.GetU32(&version) || version != kCheckpointVersion) return false;
  CheckpointData parsed;
  uint32_t num_aggregates = 0;
  if (!r.GetU64(&parsed.round) || !r.GetU64(&parsed.observations) ||
      !r.GetU64(&parsed.queries_used) || !r.GetString(&parsed.resolver_name) ||
      !r.GetString(&parsed.resolver_state) || !r.GetU32(&num_aggregates)) {
    return false;
  }
  // The count is untrusted: each record is read before it is stored, so a
  // forged count runs out of payload instead of sizing a huge vector.
  for (uint32_t i = 0; i < num_aggregates; ++i) {
    AggregateCheckpoint agg;
    if (!r.GetString(&agg.name) || !r.GetU64(&agg.trace_hash) ||
        !r.GetF64(&agg.estimate)) {
      return false;
    }
    parsed.aggregates.push_back(std::move(agg));
  }
  if (r.remaining() != 0) return false;
  *data = std::move(parsed);
  return true;
}

bool WriteCheckpointFile(const std::string& dir, const CheckpointData& data,
                         std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    *error = "create " + dir + ": " + ec.message();
    return false;
  }
  const std::string bytes = EncodeCheckpoint(data);
  const fs::path final_path = fs::path(dir) / CheckpointName(data.round);
  const fs::path tmp_path = final_path.string() + ".tmp";

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = ErrnoMessage("create", tmp_path.string());
    return false;
  }
  const char* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = ErrnoMessage("write", tmp_path.string());
      ::close(fd);
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    *error = ErrnoMessage("fsync", tmp_path.string());
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    *error = ErrnoMessage("rename", tmp_path.string());
    return false;
  }
  if (!SyncDirectory(dir)) {
    *error = ErrnoMessage("fsync dir", dir);
    return false;
  }
  return true;
}

bool ReadCheckpointFile(const std::string& path, CheckpointData* data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad() || bytes.size() > kMaxCheckpointBytes) return false;
  return DecodeCheckpoint(bytes, data);
}

std::vector<CheckpointScanEntry> ScanCheckpoints(const std::string& dir) {
  std::vector<CheckpointScanEntry> entries;
  std::error_code ec;
  if (!fs::exists(dir, ec) || ec) return entries;
  for (const fs::directory_entry& file : fs::directory_iterator(dir, ec)) {
    uint64_t round = 0;
    if (!ParseCheckpointName(file.path().filename().string(), &round)) {
      continue;
    }
    CheckpointScanEntry entry;
    entry.path = file.path().string();
    entry.round = round;
    entry.valid =
        ReadCheckpointFile(entry.path, &entry.data) && entry.data.round == round;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointScanEntry& a, const CheckpointScanEntry& b) {
              return a.round < b.round;
            });
  return entries;
}

}  // namespace engine
}  // namespace lbsagg
