#include "service/dedup.h"

#include <chrono>
#include <cstring>
#include <sstream>

#include "util/check.h"

namespace lbsagg {
namespace service {

namespace {

// Slots of the first index; it doubles whenever it would pass half full.
constexpr size_t kFirstIndexSlots = 64;

}  // namespace

QueryDedupRegistry::QueryDedupRegistry(obs::MetricsRegistry* registry)
    : index_(kFirstIndexSlots, 0),
      hits_counter_(obs::GetCounter(registry, "service.dedup.hits")) {}

size_t QueryDedupRegistry::Probe(const Key& key) const {
  const size_t mask = index_.size() - 1;
  for (size_t slot = KeyHash{}(key) & mask;; slot = (slot + 1) & mask) {
    const uint32_t entry = index_[slot];
    if (entry == 0 || entries_[entry - 1].key == key) return slot;
  }
}

size_t QueryDedupRegistry::Insert(const Key& key, size_t slot) {
  LBSAGG_CHECK_LT(entries_.size(), size_t{UINT32_MAX});
  if (2 * (entries_.size() + 1) > index_.size()) {
    // Rehash into twice the slots: keys are distinct, so each probe ends
    // at an empty slot.
    index_.assign(2 * index_.size(), 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      index_[Probe(entries_[i].key)] = static_cast<uint32_t>(i + 1);
    }
    slot = Probe(key);
  }
  entries_.push_back({key});
  index_[slot] = static_cast<uint32_t>(entries_.size());
  return entries_.size() - 1;
}

DedupStats QueryDedupRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lookups_, hits_, entries_.size()};
}

std::string QueryDedupRegistry::ToJson() const {
  const DedupStats stats = Stats();
  std::ostringstream out;
  out << "{\"entries\":" << stats.entries << ",\"lookups\":" << stats.lookups
      << ",\"hits\":" << stats.hits << "}";
  return out.str();
}

void QueryDedupRegistry::SetHitSink(uint64_t* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  hit_sink_ = sink;
}

DedupTransport::DedupTransport(LbsTransport* inner,
                               QueryDedupRegistry* registry)
    : inner_(inner), registry_(registry) {
  LBSAGG_CHECK(inner != nullptr);
  LBSAGG_CHECK(registry != nullptr);
}

TransportPlan DedupTransport::Prepare(const Vec2& q, int k) {
  QueryDedupRegistry& reg = *registry_;
  std::lock_guard<std::mutex> lock(reg.mu_);
  ++reg.lookups_;
  QueryDedupRegistry::Key key;
  std::memcpy(&key.x_bits, &q.x, sizeof key.x_bits);
  std::memcpy(&key.y_bits, &q.y, sizeof key.y_bits);
  key.k = k;
  const uint64_t ticket = reg.pending_.next();

  const size_t slot = reg.Probe(key);
  if (reg.index_[slot] != 0) {
    // Hit (page cached, or in flight under an earlier owner): mirror the
    // clean wire's charge — one attempt, zero latency — and never touch the
    // inner transport. That is the whole saving.
    ++reg.hits_;
    reg.hits_counter_.Add(1);
    if (reg.hit_sink_ != nullptr) ++*reg.hit_sink_;
    reg.pending_.Push({reg.index_[slot] - size_t{1}, /*owner=*/false, {}});
    TransportPlan plan;
    plan.ticket = ticket;
    plan.attempts = 1;
    return plan;
  }

  // Miss: this session owns the real query. The inner Prepare runs under
  // the registry lock so inner submission order equals outer ticket order —
  // the determinism contract composes.
  const TransportPlan inner = inner_->Prepare(q, k);
  QueryDedupRegistry::Pending pending;
  pending.inner_plan = inner;
  pending.owner = true;
  if (inner.outcome == TransportOutcome::kOk) {
    // Only clean full pages are shareable; anything else passes through
    // uncached so a faulty wire degrades to "no dedup", never wrong pages.
    pending.entry = reg.Insert(key, slot);
  }
  reg.pending_.Push(pending);

  TransportPlan plan = inner;
  plan.ticket = ticket;
  return plan;
}

TransportReply DedupTransport::Fulfill(const TransportPlan& plan, const Vec2& q,
                                       int k, const TupleFilter& filter) const {
  QueryDedupRegistry& reg = *registry_;
  std::unique_lock<std::mutex> lock(reg.mu_);
  QueryDedupRegistry::Pending pending;
  const bool prepared = reg.pending_.Take(plan.ticket, &pending);
  LBSAGG_CHECK(prepared)
      << "Fulfill without (or after) a matching Prepare, ticket "
      << plan.ticket;

  if (pending.owner) {
    lock.unlock();
    // Inner Fulfill is pure and thread-safe; run it outside the lock so
    // other workers' hits and misses proceed.
    TransportReply reply = inner_->Fulfill(pending.inner_plan, q, k, filter);
    if (pending.entry != QueryDedupRegistry::kNoEntry) {
      lock.lock();
      QueryDedupRegistry::Entry& entry = reg.entries_[pending.entry];
      entry.first = reg.pages_.size();
      entry.size = static_cast<int>(reply.hits.size());
      reg.pages_.insert(reg.pages_.end(), reply.hits.begin(),
                        reply.hits.end());
      reg.ready_cv_.notify_all();
    }
    return reply;
  }

  // Follower: wait for the owner's page. The owner was Prepared (hence
  // dispatched) strictly earlier, so with a FIFO executor it always makes
  // progress ahead of us. Timed re-check rather than a bare wait: glibc
  // < 2.41 condvars can drop a signal under contention (glibc bug 25847),
  // and a dropped ready notification here must cost one tick, not hang the
  // worker forever — the predicate is authoritative. Entries and pages may
  // reallocate during the wait, so the entry is looked up by number after
  // it.
  while (reg.entries_[pending.entry].size < 0) {
    reg.ready_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
  const QueryDedupRegistry::Entry& entry = reg.entries_[pending.entry];
  const auto page = reg.pages_.begin() + static_cast<ptrdiff_t>(entry.first);
  TransportReply reply;
  reply.hits.assign(page, page + entry.size);
  reply.outcome = TransportOutcome::kOk;
  reply.attempts = 1;
  reply.latency_ms = 0.0;
  return reply;
}

}  // namespace service
}  // namespace lbsagg
