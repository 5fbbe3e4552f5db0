#ifndef LBSAGG_SERVICE_ADMISSION_H_
#define LBSAGG_SERVICE_ADMISSION_H_

// Admission control for the estimation service (DESIGN.md §4.12): a bounded
// wait queue in front of the active set. Overflow is shed with a typed
// kRejected outcome instead of queueing without bound — the service's
// visible backpressure. Two dequeue policies:
//
//   kFifo       strict arrival order.
//   kFairShare  one FIFO lane per principal, drained round-robin in
//               first-appearance order — a principal submitting 10^5
//               sessions delays a one-session principal by at most one
//               active-set admission, not by the whole backlog.
//
// Single-threaded like the scheduler that owns it; determinism is arrival
// order + a cursor, nothing else.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/session.h"

namespace lbsagg {
namespace service {

enum class AdmissionPolicy : uint8_t { kFifo = 0, kFairShare };

const char* AdmissionPolicyName(AdmissionPolicy policy);

struct AdmissionOptions {
  AdmissionPolicy policy = AdmissionPolicy::kFifo;

  // Waiting sessions beyond the active set; an enqueue past this sheds the
  // session (kRejected). Submit() enqueues every session before the active
  // set is filled, so 0 sheds every submission, even into an empty service.
  size_t queue_capacity = 1024;

  // Sessions concurrently admitted to the cooperative scheduler. Bounds the
  // live engines (memory) — queued sessions are just specs.
  size_t max_active = 8;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionOptions options);

  const AdmissionOptions& options() const { return options_; }

  // False = queue full, shed the session.
  bool TryEnqueue(SessionId id, const std::string& principal);

  // Next session under the policy; kInvalidSessionId when empty.
  SessionId PopNext();

  // Cancel support: drop a queued session wherever it sits. False when the
  // id is not queued.
  bool Remove(SessionId id);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  AdmissionOptions options_;
  size_t size_ = 0;

  // kFifo lane.
  std::deque<SessionId> fifo_;

  // kFairShare lanes, ring-ordered by first appearance. Principals persist
  // for the queue's lifetime (empty lanes are skipped, not erased) so the
  // cursor arithmetic stays trivially deterministic.
  std::unordered_map<std::string, size_t> principal_index_;
  std::vector<std::deque<SessionId>> lanes_;
  size_t cursor_ = 0;
};

}  // namespace service
}  // namespace lbsagg

#endif  // LBSAGG_SERVICE_ADMISSION_H_
