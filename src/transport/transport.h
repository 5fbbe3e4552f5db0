#ifndef LBSAGG_TRANSPORT_TRANSPORT_H_
#define LBSAGG_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "lbs/server.h"

namespace lbsagg {

// Final disposition of one logical query through a transport. The paper's
// cost model (§2.1) counts *interface attempts*; these outcomes classify
// what each logical query ultimately delivered to the client.
enum class TransportOutcome {
  kOk = 0,          // full result page delivered
  kTruncated,       // delivered, but a suffix of the page was lost in transit
  kTransientError,  // gave up after retryable service errors
  kTimeout,         // gave up after deadline misses
  kFatal,           // retry policy out of attempts/budget: nothing delivered
};
inline constexpr int kNumTransportOutcomes = 5;

const char* TransportOutcomeName(TransportOutcome outcome);

// True when the client received an answer page it may act on (possibly
// truncated). Undelivered queries surface to estimators as an empty page —
// indistinguishable from "no tuple within d_max", which keeps every
// estimator running (and is exactly how production crawlers degrade).
inline bool Delivered(TransportOutcome outcome) {
  return outcome == TransportOutcome::kOk ||
         outcome == TransportOutcome::kTruncated;
}

// The fully decided fate of one logical query, fixed *before* the backend
// work runs. SimulatedTransport::Prepare computes plans sequentially in
// submission order (that is the determinism contract: plans depend only on
// the seed and the submission sequence, never on worker-thread timing);
// Fulfill then performs the pure backend lookup on any thread.
struct TransportPlan {
  uint64_t ticket = 0;    // submission sequence number
  int attempts = 1;       // interface attempts consumed (>= 1)
  TransportOutcome outcome = TransportOutcome::kOk;
  double truncate_u = 0;  // kTruncated: uniform deciding how much survives
  double latency_ms = 0;  // simulated latency incl. backoff + throttle waits
};

// One answered logical query.
struct TransportReply {
  std::vector<ServerHit> hits;
  TransportOutcome outcome = TransportOutcome::kOk;
  int attempts = 1;       // what this query cost against the §2.1 budget
  double latency_ms = 0;  // simulated; 0 through DirectTransport
};

// The wire between the restricted client interfaces (lbs/client.h) and the
// service backend. Two-phase: Prepare() runs the (cheap, stateful) policy
// pipeline and must be called in submission order; Fulfill() performs the
// (expensive, stateless) backend work and is safe to call concurrently.
// Query() composes the two for the synchronous path.
class LbsTransport {
 public:
  virtual ~LbsTransport() = default;

  virtual TransportPlan Prepare(const Vec2& q, int k) = 0;
  virtual TransportReply Fulfill(const TransportPlan& plan, const Vec2& q,
                                 int k, const TupleFilter& filter) const = 0;

  TransportReply Query(const Vec2& q, int k, const TupleFilter& filter) {
    return Fulfill(Prepare(q, k), q, k, filter);
  }
};

// Executes a batch of independent logical queries against a transport and
// returns the replies in submission order. Declared here (not in
// async_dispatcher.h) so the client interfaces can accept an executor
// without depending on the threaded implementation; AsyncDispatcher is the
// worker-pool implementation, and clients without one fall back to a
// sequential loop with identical results.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;
  virtual std::vector<TransportReply> QueryBatch(
      const std::vector<Vec2>& queries, int k, const TupleFilter& filter) = 0;
};

// The in-process wire: no latency, no faults, no rate limit, one attempt
// per query. It is the wire of every client built without a transport.
class DirectTransport final : public LbsTransport {
 public:
  // `server` must outlive the transport.
  explicit DirectTransport(const LbsServer* server) : server_(server) {}

  TransportPlan Prepare(const Vec2&, int) override { return {}; }
  TransportReply Fulfill(const TransportPlan&, const Vec2& q, int k,
                         const TupleFilter& filter) const override {
    return {server_->Query(q, k, filter), TransportOutcome::kOk, 1, 0.0};
  }

 private:
  const LbsServer* server_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_TRANSPORT_H_
