#ifndef LBSAGG_OBS_INTROSPECT_FLIGHT_RECORDER_H_
#define LBSAGG_OBS_INTROSPECT_FLIGHT_RECORDER_H_

// Flight recorder (DESIGN.md §4.13): a lock-free fixed-capacity ring buffer
// of the most recent span/event records, drainable at any moment without
// pausing the threads that feed it. The Tracer publishes every completed
// span (Tracer::SetFlightRecorder) and the service's TriggerRegistry
// publishes every session lifecycle event, so a stuck daemon can always
// answer "what were the last few thousand things this process did?" even
// while dispatcher workers keep running.
//
// The ring is a Vyukov bounded MPMC queue: each slot carries its own
// sequence number, producers claim slots with one CAS, consumers drain with
// one CAS per record, and nobody ever blocks. A producer that finds the
// ring full *drops the record and counts the drop* — backpressure on the
// hot path is never acceptable for a diagnostics plane, and an accurate
// drop counter is what makes the drained window honest.
//
// Records are fixed-size PODs (truncated copies of the span name) so a
// publish is one memcpy plus two atomics — no allocation, no locks, safe
// from any thread including dispatcher workers mid-Fulfill.
//
// Under -DLBSAGG_OBS_DISABLED the whole recorder compiles out to an empty
// stub (publishes are no-ops that return false, drains return nothing), so
// call sites build unchanged while the binary carries no introspection
// code.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace lbsagg {
namespace obs {
namespace introspect {

// One captured record. `name` is a NUL-terminated truncated copy — the
// recorder must not chase pointers whose owners may be gone by drain time.
struct FlightRecord {
  enum class Kind : uint8_t { kSpan = 0, kEvent };
  static constexpr size_t kNameCapacity = 40;

  Kind kind = Kind::kSpan;
  char name[kNameCapacity] = {0};
  double ts_us = 0.0;   // span start / event fire time
  double dur_us = 0.0;  // span duration; 0 for events
  uint64_t a = 0;       // payload: session id, ticket, ...
  uint64_t b = 0;       // payload: queries used, shard, ...

  void SetName(const char* s) {
    size_t i = 0;
    for (; s[i] != '\0' && i + 1 < kNameCapacity; ++i) name[i] = s[i];
    name[i] = '\0';
  }
  bool operator==(const FlightRecord&) const = default;
};

#ifndef LBSAGG_OBS_DISABLED

class FlightRecorder {
 public:
  // `capacity` is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Lock-free publish from any thread. Returns false (and counts a drop)
  // when the ring is full — the recorder never blocks a producer.
  bool TryPublish(const FlightRecord& record);

  // Pops every record available right now into `out` (appended in ring
  // order, oldest first) and returns how many were drained. Safe to call
  // concurrently with publishers and with other drainers; each record is
  // delivered to exactly one drainer.
  size_t Drain(std::vector<FlightRecord>* out);

  // Lifetime tallies (relaxed reads; exact once producers quiesce).
  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t drained() const { return drained_.load(std::memory_order_relaxed); }

  // {"capacity":N,"published":P,"dropped":D,"drained":R}
  std::string StatsJson() const;

 private:
  struct Slot {
    std::atomic<size_t> sequence{0};
    FlightRecord record;
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};
  alignas(64) std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> drained_{0};
};

#else  // LBSAGG_OBS_DISABLED

// Stub: same surface, no storage, no atomics. Call sites compile; the
// optimizer deletes the record-building code feeding a stub publish.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t = 4096) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  size_t capacity() const { return 0; }
  bool TryPublish(const FlightRecord&) { return false; }
  size_t Drain(std::vector<FlightRecord>*) { return 0; }
  uint64_t published() const { return 0; }
  uint64_t dropped() const { return 0; }
  uint64_t drained() const { return 0; }
  std::string StatsJson() const {
    return "{\"capacity\":0,\"published\":0,\"dropped\":0,\"drained\":0}";
  }
};

#endif  // LBSAGG_OBS_DISABLED

}  // namespace introspect
}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_INTROSPECT_FLIGHT_RECORDER_H_
