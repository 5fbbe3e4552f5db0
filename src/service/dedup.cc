#include "service/dedup.h"

#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace lbsagg {
namespace service {

QueryDedupRegistry::QueryDedupRegistry(obs::MetricsRegistry* registry)
    : hits_counter_(obs::GetCounter(registry, "service.dedup.hits")) {}

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
  const uint64_t ticket = reg.next_ticket_++;

  auto it = reg.entries_.find(key);
  if (it != reg.entries_.end()) {
    // Hit (page cached, or in flight under an earlier owner): mirror the
    // clean wire's charge — one attempt, zero latency — and never touch the
    // inner transport. That is the whole saving.
    ++reg.hits_;
    reg.hits_counter_.Add(1);
    if (reg.hit_sink_ != nullptr) ++*reg.hit_sink_;
    reg.pending_[ticket] =
        QueryDedupRegistry::Pending{&it->second, /*owner=*/false, {}};
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
    pending.entry = &reg.entries_.try_emplace(key).first->second;
  }
  reg.pending_[ticket] = std::move(pending);

  TransportPlan plan = inner;
  plan.ticket = ticket;
  return plan;
}

TransportReply DedupTransport::Fulfill(const TransportPlan& plan, const Vec2& q,
                                       int k, const TupleFilter& filter) const {
  QueryDedupRegistry& reg = *registry_;
  std::unique_lock<std::mutex> lock(reg.mu_);
  auto it = reg.pending_.find(plan.ticket);
  LBSAGG_CHECK(it != reg.pending_.end())
      << "Fulfill without (or after) a matching Prepare, ticket "
      << plan.ticket;
  const QueryDedupRegistry::Pending pending = std::move(it->second);
  reg.pending_.erase(it);

  if (pending.owner) {
    lock.unlock();
    // Inner Fulfill is pure and thread-safe; run it outside the lock so
    // other workers' hits and misses proceed.
    TransportReply reply = inner_->Fulfill(pending.inner_plan, q, k, filter);
    if (pending.entry != nullptr) {
      lock.lock();
      pending.entry->hits = reply.hits;
      pending.entry->ready = true;
      reg.ready_cv_.notify_all();
    }
    return reply;
  }

  // Follower: wait for the owner's page. The owner was Prepared (hence
  // dispatched) strictly earlier, so with a FIFO executor it always makes
  // progress ahead of us. Timed re-check rather than a bare wait: glibc
  // < 2.41 condvars can drop a signal under contention (glibc bug 25847),
  // and a dropped ready notification here must cost one tick, not hang the
  // worker forever — the predicate is authoritative.
  QueryDedupRegistry::Entry* entry = pending.entry;
  while (!entry->ready) {
    reg.ready_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
  TransportReply reply;
  reply.hits = entry->hits;
  reply.outcome = TransportOutcome::kOk;
  reply.attempts = 1;
  reply.latency_ms = 0.0;
  return reply;
}

}  // namespace service
}  // namespace lbsagg
