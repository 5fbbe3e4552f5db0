#include "service/event.h"

#include <algorithm>

namespace lbsagg {
namespace service {

const char* SessionEventKindName(SessionEventKind kind) {
  switch (kind) {
    case SessionEventKind::kSubmitted:
      return "submitted";
    case SessionEventKind::kRejected:
      return "rejected";
    case SessionEventKind::kStarted:
      return "started";
    case SessionEventKind::kProgress:
      return "progress";
    case SessionEventKind::kFinished:
      return "finished";
    case SessionEventKind::kSloStalled:
      return "slo_stalled";
    case SessionEventKind::kDeadlineAtRisk:
      return "deadline_at_risk";
  }
  return "unknown";
}

TriggerRegistry::Handle TriggerRegistry::Add(SessionEventKind kind,
                                             SessionTrigger fn) {
  const Handle handle = next_handle_++;
  entries_.push_back({handle, static_cast<int>(kind), std::move(fn)});
  return handle;
}

TriggerRegistry::Handle TriggerRegistry::AddAll(SessionTrigger fn) {
  const Handle handle = next_handle_++;
  entries_.push_back({handle, -1, std::move(fn)});
  return handle;
}

bool TriggerRegistry::Remove(Handle handle) {
  for (Entry& entry : entries_) {
    if (entry.handle != handle || entry.fn == nullptr) continue;
    // Tombstone rather than erase: a Fire() may be iterating this vector.
    entry.fn = nullptr;
    dirty_ = true;
    if (firing_depth_ == 0) Compact();
    return true;
  }
  return false;
}

void TriggerRegistry::Fire(const SessionEvent& event) {
  if (recorder_ != nullptr) {
    obs::introspect::FlightRecord record;
    record.kind = obs::introspect::FlightRecord::Kind::kEvent;
    record.SetName(SessionEventKindName(event.kind));
    record.ts_us = event.now_ms * 1000.0;
    record.a = event.id;
    record.b = event.queries_used;
    recorder_->TryPublish(record);
  }
  ++firing_depth_;
  // Index loop: a trigger may Add() (appends, seen by this very fire — the
  // registration-order contract) or Remove() (tombstones, skipped below).
  // Each trigger runs from a copy: an Add() that reallocates entries_, or a
  // Remove() of the running trigger, would otherwise free its functor while
  // it runs.
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.fn == nullptr) continue;
    if (entry.kind >= 0 && entry.kind != static_cast<int>(event.kind)) continue;
    const SessionTrigger fn = entry.fn;
    fn(event);
  }
  if (--firing_depth_ == 0 && dirty_) Compact();
}

size_t TriggerRegistry::size() const {
  size_t n = 0;
  for (const Entry& entry : entries_) {
    if (entry.fn != nullptr) ++n;
  }
  return n;
}

void TriggerRegistry::Compact() {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const Entry& e) { return e.fn == nullptr; }),
                 entries_.end());
  dirty_ = false;
}

}  // namespace service
}  // namespace lbsagg
