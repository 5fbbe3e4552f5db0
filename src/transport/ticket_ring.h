#ifndef LBSAGG_TRANSPORT_TICKET_RING_H_
#define LBSAGG_TRANSPORT_TICKET_RING_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace lbsagg {

// The per-ticket state a two-phase transport carries from Prepare() to
// Fulfill(). Prepare() hands out tickets consecutively and pushes each one's
// state; Fulfill() takes it back out, in any order, exactly once. The
// state lives in a power-of-two ring indexed by ticket, which grows only
// when the span from the oldest outstanding ticket to the newest reaches
// its size, so a steady stream of queries stores its state without an
// allocation. A ticket that is never taken holds its slot, and the ring
// grows past it: every prepared plan must be fulfilled.
//
// Not thread-safe; the owning transport serializes calls under its lock.
template <typename T>
class TicketRing {
 public:
  // Slots of the first ring; it doubles from there.
  static constexpr size_t kFirstCapacity = 64;

  explicit TicketRing(uint64_t first_ticket = 0)
      : head_(first_ticket), next_(first_ticket) {}

  // The ticket the next Push() stores.
  uint64_t next() const { return next_; }

  // Stores `value` as ticket next(), then advances next().
  void Push(T value) {
    if (next_ - head_ == slots_.size()) Grow();
    Slot& slot = slots_[next_ & (slots_.size() - 1)];
    slot.value = std::move(value);
    slot.live = true;
    ++next_;
  }

  // Moves ticket's state into `*out` and frees its slot. False when the
  // ticket was never pushed or was already taken.
  bool Take(uint64_t ticket, T* out) {
    if (ticket < head_ || ticket >= next_) return false;
    const size_t mask = slots_.size() - 1;
    Slot& slot = slots_[ticket & mask];
    if (!slot.live) return false;
    *out = std::move(slot.value);
    slot.live = false;
    while (head_ < next_ && !slots_[head_ & mask].live) ++head_;
    return true;
  }

 private:
  struct Slot {
    bool live = false;
    T value{};
  };

  // Doubles the ring, re-homing each outstanding ticket by its new mask.
  void Grow() {
    std::vector<Slot> grown(slots_.empty() ? kFirstCapacity
                                           : 2 * slots_.size());
    const size_t old_mask = slots_.size() - 1;
    for (uint64_t t = head_; t < next_; ++t) {
      grown[t & (grown.size() - 1)] = std::move(slots_[t & old_mask]);
    }
    slots_ = std::move(grown);
  }

  std::vector<Slot> slots_;  // size 0 or a power of two
  uint64_t head_;            // every ticket below it has been taken
  uint64_t next_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_TICKET_RING_H_
