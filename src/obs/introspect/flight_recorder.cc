#include "obs/introspect/flight_recorder.h"

#include <sstream>

namespace lbsagg {
namespace obs {
namespace introspect {

#ifndef LBSAGG_OBS_DISABLED

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity) {
  const size_t cap = RoundUpPow2(capacity);
  mask_ = cap - 1;
  slots_ = std::make_unique<Slot[]>(cap);
  for (size_t i = 0; i < cap; ++i) {
    slots_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

bool FlightRecorder::TryPublish(const FlightRecord& record) {
  size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & mask_];
    const size_t seq = slot.sequence.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        slot.record = record;
        slot.sequence.store(pos + 1, std::memory_order_release);
        published_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // CAS failure reloaded `pos`; retry with the fresh claim point.
    } else if (dif < 0) {
      // The slot still holds an unconsumed record a full lap behind: the
      // ring is full. Drop-newest keeps producers wait-free.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

size_t FlightRecorder::Drain(std::vector<FlightRecord>* out) {
  size_t drained = 0;
  size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & mask_];
    const size_t seq = slot.sequence.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
    if (dif == 0) {
      if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        out->push_back(slot.record);
        // Hand the slot back to producers one lap ahead.
        slot.sequence.store(pos + mask_ + 1, std::memory_order_release);
        ++drained;
        ++pos;
      }
    } else if (dif < 0) {
      break;  // empty: nothing published past this point yet
    } else {
      pos = dequeue_pos_.load(std::memory_order_relaxed);
    }
  }
  if (drained > 0) drained_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

std::string FlightRecorder::StatsJson() const {
  std::ostringstream os;
  os << "{\"capacity\":" << capacity() << ",\"published\":" << published()
     << ",\"dropped\":" << dropped() << ",\"drained\":" << drained() << "}";
  return os.str();
}

#endif  // LBSAGG_OBS_DISABLED

}  // namespace introspect
}  // namespace obs
}  // namespace lbsagg
