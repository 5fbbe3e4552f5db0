#ifndef LBSAGG_TRANSPORT_SHARDED_TRANSPORT_H_
#define LBSAGG_TRANSPORT_SHARDED_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "lbs/server.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "transport/metrics.h"
#include "transport/policies.h"
#include "transport/ticket_ring.h"
#include "transport/transport.h"

namespace lbsagg {

struct ShardedTransportOptions {
  LatencyOptions latency;

  // Every shard lane gets its *own* token bucket with these parameters —
  // the "one service, many regions" quota model, where each region meters
  // its own sub-requests. capacity 0 disables rate limiting.
  TokenBucketOptions rate_limit;

  // Default per-lane fault profile; `shard_faults[s]` (when s is in range)
  // overrides it for shard s — how tests force a single shard hot.
  FaultOptions faults;
  std::vector<FaultOptions> shard_faults;

  // Per-lane retry policy; retry_budget is also per lane.
  RetryOptions retry;

  // Virtual-clock model. Default (false) models a sequential client: the
  // next logical query departs when the previous one *completes*, so
  // end-to-end latency bounds throughput at every shard count. When true
  // the clock models a pipelined (open-loop) client that keeps every
  // lane's queue full: the next query departs as soon as the rate limiters
  // grant the previous one's final attempt, so sustained throughput is set
  // by the per-lane quotas — the regime where scatter-gather scales with
  // shard count (bench/fig18_sharded.cc).
  // Per-query latency_ms is unchanged; only inter-query spacing differs.
  bool pipelined_clock = false;

  // Lane s draws from SplitMix64(seed ^ 0x9e3779b97f4a7c15 * (s + 1)).
  uint64_t seed = 0x5eed;

  // Metric plane for the live cells: transport.sharded.* counters and the
  // transport.sharded.latency_ms histogram for the scatter layer, plus
  // per-lane transport.shardNN.attempts and transport.shardNN.latency_ms.
  // Null lands on obs::MetricsRegistry::Default().
  obs::MetricsRegistry* registry = nullptr;

  // When set, each logical query emits one "transport.request" span
  // wrapping per-lane "transport.shard.request" spans and their
  // "transport.attempt" children, stamped with virtual-time endpoints. Pair
  // with a Tracer whose clock reads VirtualNowMs() * 1000 so estimator
  // spans share the timeline (obs/trace.h).
  obs::Tracer* tracer = nullptr;
};

// The simulated wire: a network and service quota between the client
// interfaces and an LbsServer, one public kNN endpoint backed by one
// PolicyLane per shard, each owning its own token bucket, seeded fault
// injector, and retry budget (seeds are mixed per shard, so a lane's fault
// stream is independent of its neighbors'). Over a one-shard server it is
// the plain rate-limited, faulty service of §2.1: one lane, and
// ShardMetrics(0) holds the per-attempt accounting.
//
// Time is *virtual*: nothing sleeps. Faults, latencies, and jitter are pure
// functions of (lane seed, ticket, attempt), and tickets are assigned in
// Prepare() submission order, so the outcome sequence and metrics are
// bit-identical for any dispatcher thread count and across reruns with
// the same seed (transport_determinism_test.cc). Undelivered queries
// surface as an *empty page*, and every attempt still counts against the
// client's §2.1 query budget.
//
// Prepare() is the stateful scatter: it picks the reachable shards for the
// query (pure geometry — LbsServer::ReachableShards), then runs the
// policy pipeline on every targeted lane, all departing at the shared
// virtual now. Sub-requests travel in parallel, so the
// combined plan charges the *critical path*: attempts = max over lanes
// (the §2.1 cost of one logical interface round, identical across shard
// counts when no lane faults), latency = the slowest lane's completion.
// Per-lane metrics keep the true per-lane accounting: the aggregate counts
// requests, attempts, retries and outcomes, and only the lanes count
// attempt-level faults and throttling. Lanes are processed in ascending
// shard order inside sequential Prepare() calls. A query beyond every
// shard's coverage (max_radius) contacts no lane and costs one attempt.
//
// Fulfill() is the pure gather, LbsServer::GatherShards over the same
// reachable shards: delivered lanes answer nearest-first, each kOk lane
// searched under the running k-th best d2 of the hits already gathered,
// and a lane whose shard lies wholly beyond that cap answers an empty page
// without a search. A kTruncated lane is searched uncapped and keeps a
// strict prefix of its page. The hits fold by (d2, id) into one running
// top-k, so with every lane delivered the reply is bit-identical to the
// one-shard server for any shard count, worker count, and arrival order.
// The cap only shrinks far pages: Prepare still contacts every targeted
// lane, so attempts, fault draws and latency do not depend on it.
//
// Between the two phases a plan's state waits in a ticket ring. Only a
// kTruncated plan stores anything there, its truncated lanes and their
// cuts: a kOk plan's lanes are every reachable shard, all kOk, and an
// undelivered plan answers an empty page. So the wire's own share of a
// clean query's allocations is Prepare's list of reachable shards; the
// rest is the gather's (DESIGN.md §4.11).
//
// Partial failure is *typed*, never silent: if any targeted lane fails its
// sub-request (kTransientError / kTimeout / kFatal after the lane's
// retries), the logical query carries that lane's outcome — the
// lowest-shard-id failure, deterministically — and an empty page. A merge
// that quietly dropped one shard's candidates would be indistinguishable
// from a sparse region, which is exactly the estimator poison the
// TransportOutcome taxonomy exists to prevent.
class ShardedTransport final : public LbsTransport {
 public:
  // `server` must outlive the transport.
  ShardedTransport(const LbsServer* server,
                   ShardedTransportOptions options = {});

  // Stateful scatter; serialize calls in submission order.
  TransportPlan Prepare(const Vec2& q, int k) override;

  // Pure gather; thread-safe. Each plan must be fulfilled exactly once
  // (AsyncDispatcher and the synchronous Query() path both guarantee it);
  // a second Fulfill, or one for a ticket never prepared, dies.
  TransportReply Fulfill(const TransportPlan& plan, const Vec2& q, int k,
                         const TupleFilter& filter) const override;

  const ShardedTransportOptions& options() const { return options_; }
  int num_shards() const { return server_->num_shards(); }

  // Client-facing aggregate: one logical query = one request, critical-path
  // attempts, slowest-lane latency.
  TransportMetrics Metrics() const;
  // True per-lane accounting for one shard (every sub-request and retry).
  TransportMetrics ShardMetrics(int shard) const;
  void ResetMetrics();

  // Current virtual time in ms (the slowest lane's frontier).
  double VirtualNowMs() const;

 private:
  // The lanes of a kTruncated plan that the wire cut short, ascending by
  // shard, with the uniform that decides how much of each page survives.
  struct TruncatedLanes {
    std::vector<int> shards;
    std::vector<double> truncate_u;
  };

  const LbsServer* server_;
  ShardedTransportOptions options_;
  LatencyModel latency_model_;

  mutable std::mutex mu_;
  std::vector<PolicyLane> lanes_;
  double virtual_now_ms_ = 0.0;
  TransportMetrics metrics_;  // client-facing aggregate
  mutable TicketRing<TruncatedLanes> pending_;  // empty but for kTruncated
  obs::CounterRef requests_counter_;
  obs::CounterRef fanout_counter_;
  obs::CounterRef partial_failure_counter_;
  obs::CounterRef fulfills_counter_;
  obs::HistogramRef latency_histogram_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_SHARDED_TRANSPORT_H_
