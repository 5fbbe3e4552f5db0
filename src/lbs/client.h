#ifndef LBSAGG_LBS_CLIENT_H_
#define LBSAGG_LBS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geometry/loc_key.h"
#include "lbs/server.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "transport/transport.h"

namespace lbsagg {

// Client-side configuration.
struct ClientOptions {
  // Number of results requested per query (clamped to the server's max_k).
  int k = 1;

  // Query budget; 0 = unlimited. The budget is *soft*: a query issued while
  // over budget still succeeds (a cell computation mid-flight may finish),
  // but estimators consult HasBudget() before starting new work, which is
  // how the paper's fixed-budget experiments operate.
  //
  // Retry accounting (§2.1): the budget counts *interface attempts*, not
  // logical queries. Through a fault-injecting transport a retried query
  // charges once per attempt — the service's rate limiter meters attempts,
  // so a flaky network genuinely buys fewer logical answers per budget
  // (StopRule::budget in core/runner.h documents the interaction).
  uint64_t budget = 0;

  // Cross-round query memo: remember every (quantized location → answer)
  // pair and answer repeats client-side at zero interface cost. The service
  // is static, so a repeated query is pure waste — the refinement loops
  // deduplicate within one cell computation already, but neighboring cells
  // and Monte-Carlo rounds re-probe the same vertices. Off by default
  // because two locations closer than ~1e-9 of the region scale share a
  // memo slot, so counted-query traces differ from the memo-less run.
  bool memoize_queries = false;

  // Metric plane for the client.* counters (queries, memo_hits); null lands
  // on the process-wide obs::MetricsRegistry::Default(). Determinism tests
  // inject a fresh registry per run and compare snapshots.
  obs::MetricsRegistry* registry = nullptr;

  // When set, every counted query emits a "client.query" span (nested
  // between the estimator's round span and the transport's attempt spans).
  // Null = no tracing, no overhead beyond one pointer test.
  obs::Tracer* tracer = nullptr;
};

// Atomically drained per-client accounting (see SnapshotAndResetStats).
struct ClientStats {
  uint64_t queries = 0;    // interface attempts charged (§2.1 cost)
  uint64_t memo_hits = 0;  // queries answered client-side at zero cost
};

// Base of the restricted public interfaces. Owns query accounting — the
// paper's No. 1 performance metric (§2.1) is the number of interface calls,
// and every Query() on any derived client increments the counter exactly
// once.
class LbsClient {
 public:
  // `server` must outlive the client. Queries go straight to the server —
  // the zero-overhead in-process wire, equivalent to a DirectTransport.
  LbsClient(const LbsServer* server, ClientOptions options);

  // Routes every query through `transport` (latency, rate limits, faults,
  // retries — see transport/simulated_transport.h). Each *interface
  // attempt* the transport makes counts against the query budget. An
  // optional `batch` executor (an AsyncDispatcher over the same transport)
  // pipelines QueryBatch() calls across worker threads; without one,
  // batches run sequentially with identical results. All three pointers
  // must outlive the client.
  LbsClient(const LbsServer* server, ClientOptions options,
            LbsTransport* transport, BatchExecutor* batch = nullptr);

  virtual ~LbsClient() = default;

  int k() const { return k_; }
  uint64_t queries_used() const {
    return queries_used_.load(std::memory_order_relaxed);
  }

  // Atomically drains the query and memo-hit counters (each via one
  // exchange) and returns the drained values: every increment lands in
  // exactly one accounting period even while a batch is in flight on an
  // AsyncDispatcher — the snapshot-then-reset contract the racy
  // field-by-field reset could not give (pinned under TSAN by obs_test.cc).
  ClientStats SnapshotAndResetStats() {
    ClientStats stats;
    stats.queries = queries_used_.exchange(0, std::memory_order_relaxed);
    stats.memo_hits = memo_hits_.exchange(0, std::memory_order_relaxed);
    return stats;
  }

  // Resets every per-run statistic — the query counter, the memo-hit
  // counter, and the query log — so a reused client reports internally
  // consistent numbers (memo_hits() can never exceed the queries the
  // current accounting period has seen). The memo *contents* survive: the
  // service is static, so cached answers stay valid across runs. The
  // counter drain is atomic (SnapshotAndResetStats); clearing the query
  // log still requires no batch in flight.
  void ResetQueryCount() {
    (void)SnapshotAndResetStats();
    query_log_.clear();
  }

  // Checkpoint-restore hook (engine/log/): pins the attempt counter to a
  // value recovered from a durable checkpoint, so a resumed run's budget
  // arithmetic — HasBudget() gates, queries_after round boundaries, soft
  // overrun — continues exactly where the interrupted process stopped.
  // Requires no batch in flight.
  void RestoreQueryCount(uint64_t queries) {
    queries_used_.store(queries, std::memory_order_relaxed);
  }

  // Order-independent hash of the cross-round memo's key set (0 when the
  // memo is off or empty). Checkpoints record it so recovery can detect the
  // case it cannot replay: memo contents die with the process, and a resumed
  // run whose memo state differs would answer repeat queries differently
  // than the interrupted run — see DurableLog's resume gate.
  uint64_t MemoStateHash() const;

  // True if `upcoming` more queries fit in the budget (always true when the
  // budget is unlimited).
  bool HasBudget(uint64_t upcoming = 1) const;
  uint64_t budget() const { return options_.budget; }

  // Appends a pass-through selection condition to every future query
  // (§5.1, e.g. NAME = 'Starbucks' on Google Places). Pass nullptr to clear.
  // Invalidates the query memo: the same location now has a new answer.
  void SetPassThroughFilter(TupleFilter filter);

  // True when the service ranks by plain ascending distance, i.e. results
  // arrive already in the nearest-neighbor order the Theorem-1 rank tests
  // need and clients may skip their re-sort.
  bool distance_ranked() const {
    return server_->options().ranking == RankingMode::kDistance;
  }

  // Number of queries answered from the memo (always 0 unless
  // ClientOptions::memoize_queries).
  uint64_t memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }

  // Attribute access for tuples the service returned: both LR and LNR
  // interfaces return non-location attributes (name, rating, gender, …).
  const Schema& schema() const { return server_->dataset().schema(); }
  AttrValue Attribute(int id, int col) const;
  double NumericAttribute(int id, int col) const;

  // Bounding region of the service (public knowledge: the area of interest).
  const Box& region() const { return server_->dataset().box(); }

  // Maximum coverage radius d_max — a documented interface restriction
  // (§5.3: Google Maps 50 km, Weibo 11 km), hence public knowledge the
  // estimation algorithms may use. Infinity when unrestricted.
  double max_radius() const { return server_->options().max_radius; }

  // Diagnostics: record every query location (off by default; the log can
  // grow large). Used by the visualization example to show where an
  // estimator actually spends its budget.
  void EnableQueryLog() { log_queries_ = true; }
  const std::vector<Vec2>& query_log() const { return query_log_; }

 protected:
  // Issues one counted query (through the transport when one is attached;
  // the cost charged is the transport's attempt count).
  std::vector<ServerHit> RawQuery(const Vec2& q);

  // Issues `points.size()` independent counted queries and returns the
  // result pages in submission order. With an attached BatchExecutor the
  // backend work is pipelined across its workers; either way the pages,
  // accounting, and query log are identical to issuing the points through
  // RawQuery one at a time (transport metrics included — see the
  // determinism contract in transport/simulated_transport.h).
  std::vector<std::vector<ServerHit>> RawQueryBatch(
      const std::vector<Vec2>& points);

  // Counted query behind the cross-round memo: a memo hit costs zero
  // interface queries and leaves no query-log entry. Identical to RawQuery
  // unless ClientOptions::memoize_queries.
  const std::vector<ServerHit>& MemoQuery(const Vec2& q);

  // Batch variant of MemoQuery: answers memoized points client-side,
  // dispatches only the misses (deduplicated within the batch, like the
  // sequential path would), and returns pages by value in point order.
  std::vector<std::vector<ServerHit>> MemoQueryBatch(
      const std::vector<Vec2>& points);

  const LbsServer* server_;

 private:
  // Charges `attempts` interface attempts for one counted query at `q`.
  void ChargeQuery(const Vec2& q, uint64_t attempts) {
    queries_used_.fetch_add(attempts, std::memory_order_relaxed);
    queries_counter_.Add(attempts);
    if (log_queries_) query_log_.push_back(q);
  }

  void CountMemoHit() {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    memo_hits_counter_.Add(1);
  }

  ClientOptions options_;
  LbsTransport* transport_ = nullptr;  // null = direct in-process wire
  BatchExecutor* batch_ = nullptr;
  int k_;
  TupleFilter filter_;
  std::atomic<uint64_t> queries_used_{0};
  bool log_queries_ = false;
  std::vector<Vec2> query_log_;
  obs::CounterRef queries_counter_;
  obs::CounterRef memo_hits_counter_;
  obs::Tracer* tracer_ = nullptr;

  // Cross-round memo (see ClientOptions::memoize_queries).
  double memo_grid_ = 0.0;
  std::atomic<uint64_t> memo_hits_{0};
  std::unordered_map<LocKey, std::vector<ServerHit>, LocKeyHash> memo_;
  std::vector<ServerHit> memo_scratch_;  // MemoQuery result when memo is off
};

// Location-Returned LBS interface (Google Maps): ranked ids + precise
// locations + distances.
class LrClient : public LbsClient {
 public:
  struct Item {
    int id = -1;
    Vec2 location;
    double distance = 0.0;
  };

  using LbsClient::LbsClient;

  // Top-k nearest tuples with locations, nearest first. Virtual so that
  // derived clients can synthesize the same contract from poorer
  // interfaces (see TrilaterationClient).
  virtual std::vector<Item> Query(const Vec2& q);

  // Batch variant for *independent* probes (Monte-Carlo membership tests,
  // ring scans): same pages, accounting, and memo behavior as calling
  // Query() point by point, but pipelined through the client's
  // BatchExecutor when one is attached.
  virtual std::vector<std::vector<Item>> QueryBatch(
      const std::vector<Vec2>& points);
};

// LR-by-trilateration (§2.1): services like Skout and Momo return ranked
// ids and precise *distances* but no coordinates. Three queries recover
// each tuple's location exactly, after which every LR algorithm applies
// unchanged — this client performs the recovery transparently (caching each
// tuple's inferred position, since the service is static).
class TrilaterationClient : public LrClient {
 public:
  using LrClient::LrClient;

  // Same contract as LrClient::Query, but every location is *inferred* by
  // trilateration rather than returned by the service. Tuples whose
  // location cannot be pinned down (they fall out of the top-k at every
  // probe offset) are dropped from the result.
  std::vector<Item> Query(const Vec2& q) override;

  // Trilateration probes are sequential by nature (each result steers the
  // next offset), so the batch contract degrades to a point-by-point loop.
  std::vector<std::vector<Item>> QueryBatch(
      const std::vector<Vec2>& points) override;

  // Number of tuples whose positions have been inferred so far.
  size_t inferred_positions() const { return position_cache_.size(); }

 private:
  // Distance to `id` at probe location `p`, if the service still ranks it.
  std::optional<double> ProbeDistance(const Vec2& p, int id);

  std::unordered_map<int, Vec2> position_cache_;
};

// Location-Not-Returned LBS interface (WeChat, Sina Weibo): a ranked list
// of tuple ids only.
class LnrClient : public LbsClient {
 public:
  using LbsClient::LbsClient;

  // Ranked ids of the top-k nearest tuples.
  std::vector<int> Query(const Vec2& q);

  // Convenience for the binary-search primitives: whether `id` appears in
  // the result at `q`. Costs one query.
  bool Returns(const Vec2& q, int id);

  // Convenience: the top-1 id at `q`, or -1 when the result is empty
  // (max_radius). Costs one query.
  int Top1(const Vec2& q);
};

// Distance-returning variant (Skout, Momo): ranked ids + precise distances
// but no coordinates. §2.1 classifies these as LR-LBS because trilateration
// recovers locations with 3 queries — see lbs/trilateration.h.
class DistanceClient : public LbsClient {
 public:
  struct Item {
    int id = -1;
    double distance = 0.0;
  };

  using LbsClient::LbsClient;

  std::vector<Item> Query(const Vec2& q);
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_CLIENT_H_
