#ifndef LBSAGG_SERVICE_DEDUP_H_
#define LBSAGG_SERVICE_DEDUP_H_

// Cross-session interface-query dedup (DESIGN.md §4.12). Sessions hosted by
// the EstimationService probe overlapping hot regions, so identical
// (location, k) interface queries recur across sessions — twin sessions
// replaying a seed, dashboards re-polling a region, coordinated sweeps. The
// service wraps
// each backend wire in a DedupTransport sharing one QueryDedupRegistry: the
// first session to ask a question owns the real backend query; every later
// session gets the cached page without the backend (or its rate limiter)
// ever seeing the repeat.
//
// Charging is *mirrored*: a dedup hit still charges the asking session one
// interface attempt — exactly what a clean wire would have charged it — so
// each session's counted-query trace, budget loop, and estimates stay
// bit-identical to running that session alone. The saving is real but
// backend-side: every hit is one interface attempt the inner wire (and its
// rate limiter) never sees, so the registry's `hits` is also the count of
// backend queries saved ("saved_queries" in BENCH_service.json).
//
// Determinism and single-flight: the hit/miss/owner decision is made in
// Prepare(), which the transport contract already serializes in submission
// order — so the decision stream is a pure function of the query sequence,
// never of worker timing. An in-flight entry's followers block in Fulfill()
// on a condvar until the owner publishes the page. Deadlock-free: without a
// dispatcher every query is fulfilled before the next is prepared, so no
// entry is in flight when a follower asks; under the AsyncDispatcher the
// queue is FIFO and an owner is always submitted (hence dequeued) before
// any of its followers.
//
// Scope of the bit-identity guarantee: pages are shareable only when the
// owner's plan is clean (kOk). Truncated or undelivered plans bypass the
// registry entirely, so a faulty wire degrades to no dedup rather than to
// wrong sharing; the solo-equality contract is stated for clean wires
// (rate limiting and latency only move virtual time, never pages).
//
// All sessions sharing a registry must use the same pass-through filter
// (the service layer sets none): the key cannot see the filter, which is
// only available at Fulfill time.
//
// Layout: a query that saves nothing should cost almost nothing, so no
// query allocates here beyond the amortized doubling of four vectors.
// Entries sit in one vector in first-Prepare order, found through a
// power-of-two open-addressing index of entry numbers over KeyHash;
// published pages are appended back to back to one pooled hit vector; and
// each ticket's Prepare-time decision waits in a ticket ring. Nothing is
// erased, so the registry grows for the service's life (DESIGN.md §4.12).
// Entries and pages can reallocate while a follower waits, so the follower
// holds its entry's number across the wait, never a reference.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "geometry/loc_key.h"
#include "obs/obs.h"
#include "transport/ticket_ring.h"
#include "transport/transport.h"

namespace lbsagg {
namespace service {

struct DedupStats {
  uint64_t lookups = 0;  // Prepare() calls routed through the registry
  uint64_t hits = 0;     // answered (or to be answered) from the cache:
                         // attempts the backend never saw
  size_t entries = 0;    // cached pages (incl. in-flight)
};

// The shared cross-session cache. One per backend; shared by every
// DedupTransport the service creates over that backend's wire.
class QueryDedupRegistry {
 public:
  // Keys are the *exact* bit patterns of (x, y, k): only truly identical
  // interface queries share a page. No quantization — two nearby-but-
  // distinct probe points can have different kNN pages, and handing one the
  // other's page would silently corrupt the borrowing session's estimate
  // (the refinement loops' LocKey grid only merges a cell computation's own
  // vertices; a cross-session cache never may). `registry` feeds the
  // service.dedup.hits counter; null = Default().
  explicit QueryDedupRegistry(obs::MetricsRegistry* registry = nullptr);

  DedupStats Stats() const;

  // {"entries":N,"lookups":L,"hits":H}
  std::string ToJson() const;

  // Per-session hit attribution: when set, every Prepare() hit increments
  // `*sink`. The cooperative scheduler points this at the running session's
  // counter for the duration of its slice (single Prepare stream, so no
  // races). Pass nullptr to detach.
  void SetHitSink(uint64_t* sink);

 private:
  friend class DedupTransport;

  struct Key {
    uint64_t x_bits = 0;  // exact IEEE-754 bit patterns, not quantized cells
    uint64_t y_bits = 0;
    int k = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      auto fold = [](uint64_t h, uint64_t v) {
        h ^= SplitMix64(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
      };
      uint64_t h = fold(0, key.x_bits);
      h = fold(h, key.y_bits);
      return static_cast<size_t>(fold(h, static_cast<uint64_t>(key.k)));
    }
  };
  // One distinct question. Once its owner publishes, its page is
  // pages_[first, first + size); size is -1 while the owner is in flight.
  struct Entry {
    Key key;
    int size = -1;
    size_t first = 0;
  };
  static constexpr size_t kNoEntry = ~size_t{0};
  // The Prepare()-time decision for one outer ticket, consumed by Fulfill().
  struct Pending {
    size_t entry = kNoEntry;  // kNoEntry: uncacheable plan, plain pass-through
    bool owner = false;
    TransportPlan inner_plan;
  };

  // The index slot holding key's entry, or the empty slot where it belongs.
  size_t Probe(const Key& key) const;
  // Appends key's entry, to be published later, at `slot` from Probe().
  size_t Insert(const Key& key, size_t slot);

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::vector<Entry> entries_;
  // Entry number + 1 per slot, 0 when empty; a power of two in size, and
  // at most half full.
  std::vector<uint32_t> index_;
  std::vector<ServerHit> pages_;  // every published page, back to back
  TicketRing<Pending> pending_{1};
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  uint64_t* hit_sink_ = nullptr;
  obs::CounterRef hits_counter_;
};

// The wire wrapper. Stateless itself — every decision lives in the shared
// registry — so the service can hand each client its own DedupTransport or
// share one; both are equivalent.
class DedupTransport final : public LbsTransport {
 public:
  // Both pointers must outlive the transport. `inner` is the real wire
  // (DirectTransport, ShardedTransport, ...).
  DedupTransport(LbsTransport* inner, QueryDedupRegistry* registry);

  // Serialized in submission order (transport contract): decides hit /
  // owner / pass-through and, for misses, runs the inner Prepare under the
  // same critical section so inner tickets follow outer submission order.
  TransportPlan Prepare(const Vec2& q, int k) override;

  // Thread-safe. Owners run the inner Fulfill and publish the page;
  // followers wait for it; pass-throughs just delegate.
  TransportReply Fulfill(const TransportPlan& plan, const Vec2& q, int k,
                         const TupleFilter& filter) const override;

  const QueryDedupRegistry* registry() const { return registry_; }

 private:
  LbsTransport* inner_;
  QueryDedupRegistry* registry_;
};

}  // namespace service
}  // namespace lbsagg

#endif  // LBSAGG_SERVICE_DEDUP_H_
