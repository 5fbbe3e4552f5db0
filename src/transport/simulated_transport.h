#ifndef LBSAGG_TRANSPORT_SIMULATED_TRANSPORT_H_
#define LBSAGG_TRANSPORT_SIMULATED_TRANSPORT_H_

#include <cstdint>
#include <mutex>

#include "obs/obs.h"
#include "obs/trace.h"
#include "transport/metrics.h"
#include "transport/policies.h"
#include "transport/transport.h"

namespace lbsagg {

struct SimulatedTransportOptions {
  LatencyOptions latency;
  TokenBucketOptions rate_limit;  // capacity 0 = no rate limiting
  FaultOptions faults;
  RetryOptions retry;
  uint64_t seed = 0x5eed;

  // Metric plane for the live transport.fulfills counter (incremented on the
  // dispatcher's worker threads) and the transport.latency_ms histogram;
  // null lands on obs::MetricsRegistry::Default().
  obs::MetricsRegistry* registry = nullptr;

  // When set, every logical query emits one "transport.request" span with
  // nested "transport.attempt" spans, stamped with the *virtual*-time
  // endpoints computed in Prepare(). Pair with a Tracer bound to a
  // FunctionTraceClock on VirtualNowMs so estimator spans share the
  // timeline (obs/trace.h).
  obs::Tracer* tracer = nullptr;
};

// A simulated network + service quota between the client interfaces and the
// LBS backend. Each logical query runs the policy pipeline of the
// transport's one PolicyLane (transport/policies.h), seeded with
// options.seed.
//
// Time is *virtual*: nothing sleeps, the clock models a sequential client
// whose next query departs when the previous one completes. Faults,
// latencies, and jitter are pure functions of (seed, ticket, attempt), and
// tickets are assigned in Prepare() submission order, so the full outcome
// sequence and metrics are bit-identical for any dispatcher thread count
// and across reruns with the same seed (the determinism contract pinned by
// transport_determinism_test.cc).
//
// Undelivered queries (kTransientError / kTimeout after the last attempt,
// or kFatal when the retry budget is spent) surface as an *empty page* —
// estimators keep running, exactly like a crawler treating a dead request
// as "no results here". Every attempt still counts against the client's
// §2.1 query budget.
class SimulatedTransport final : public LbsTransport {
 public:
  // `server` must outlive the transport.
  SimulatedTransport(const LbsServer* server,
                     SimulatedTransportOptions options = {});

  // Stateful policy pipeline; serialize calls in submission order.
  TransportPlan Prepare(const Vec2& q, int k) override;

  // Pure backend work; thread-safe.
  TransportReply Fulfill(const TransportPlan& plan, const Vec2& q, int k,
                         const TupleFilter& filter) const override;

  const SimulatedTransportOptions& options() const { return options_; }

  // Snapshot of the counters (copy, taken under the internal lock).
  TransportMetrics Metrics() const;
  void ResetMetrics();

  // Current virtual time in ms (throttle waits, latencies, backoffs).
  double VirtualNowMs() const;

 private:
  const LbsServer* server_;
  SimulatedTransportOptions options_;
  LatencyModel latency_model_;

  mutable std::mutex mu_;
  PolicyLane lane_;
  uint64_t next_ticket_ = 0;
  double virtual_now_ms_ = 0.0;
  obs::CounterRef fulfills_counter_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_SIMULATED_TRANSPORT_H_
