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
// backend-side: fewer inner Prepare/Fulfill calls, fewer rate-limiter
// tokens, and the registry counts them as saved_attempts ("queries saved by
// dedup" in BENCH_service.json).
//
// Determinism and single-flight: the hit/miss/owner decision is made in
// Prepare(), which the transport contract already serializes in submission
// order — so the decision stream is a pure function of the query sequence,
// never of worker timing. An in-flight entry's followers block in Fulfill()
// on a condvar until the owner publishes the page. Deadlock-free under the
// AsyncDispatcher because its queue is FIFO and an owner is always submitted
// (hence dequeued) before any of its followers.
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

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "geometry/loc_key.h"
#include "obs/obs.h"
#include "transport/transport.h"

namespace lbsagg {
namespace service {

struct DedupStats {
  uint64_t lookups = 0;         // Prepare() calls routed through the registry
  uint64_t hits = 0;            // answered (or to be answered) from the cache
  uint64_t saved_attempts = 0;  // interface attempts the backend never saw
  size_t entries = 0;           // cached pages (incl. in-flight)
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
  // service.dedup.{hits,saved_queries} counters; null = Default().
  explicit QueryDedupRegistry(obs::MetricsRegistry* registry = nullptr);

  DedupStats Stats() const;

  // {"entries":N,"lookups":L,"hits":H,"saved_queries":S}
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
  struct Entry {
    bool ready = false;
    std::vector<ServerHit> hits;
  };
  // The Prepare()-time decision for one outer ticket, consumed by Fulfill().
  struct Pending {
    Entry* entry = nullptr;  // null: uncacheable plan, plain pass-through
    bool owner = false;
    TransportPlan inner_plan;
  };

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::unordered_map<Key, std::unique_ptr<Entry>, KeyHash> entries_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_ticket_ = 1;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  uint64_t saved_attempts_ = 0;
  uint64_t* hit_sink_ = nullptr;
  obs::CounterRef hits_counter_;
  obs::CounterRef saved_counter_;
};

// The wire wrapper. Stateless itself — every decision lives in the shared
// registry — so the service can hand each client its own DedupTransport or
// share one; both are equivalent.
class DedupTransport final : public LbsTransport {
 public:
  // Both pointers must outlive the transport. `inner` is the real wire
  // (DirectTransport, SimulatedTransport, ShardedTransport, ...).
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
