#ifndef LBSAGG_LBS_CLIENT_H_
#define LBSAGG_LBS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

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

  // Metric plane for the client.queries counter; null lands on the
  // process-wide obs::MetricsRegistry::Default(). Determinism tests inject a
  // fresh registry per run and compare snapshots.
  obs::MetricsRegistry* registry = nullptr;

  // When set, every counted query emits a "client.query" span (nested
  // between the estimator's round span and the transport's attempt spans).
  // Null = no tracing, no overhead beyond one pointer test.
  obs::Tracer* tracer = nullptr;
};

// Base of the restricted public interfaces. Owns query accounting — the
// paper's No. 1 performance metric (§2.1) is the number of interface calls,
// and every Query() on any derived client increments the counter exactly
// once.
class LbsClient {
 public:
  // Routes every query through `transport` (latency, rate limits, faults,
  // retries — see transport/simulated_transport.h); without one, through a
  // DirectTransport over `server` that the client owns. Each *interface
  // attempt* the transport makes counts against the query budget. An
  // optional `batch` executor (an AsyncDispatcher over the same transport)
  // pipelines QueryBatch() calls across worker threads; without one,
  // batches run sequentially with identical results. All three pointers
  // must outlive the client.
  LbsClient(const LbsServer* server, ClientOptions options,
            LbsTransport* transport = nullptr, BatchExecutor* batch = nullptr);

  virtual ~LbsClient() = default;

  int k() const { return k_; }
  uint64_t queries_used() const {
    return queries_used_.load(std::memory_order_relaxed);
  }

  // Atomically drains the query counter (one exchange) and returns the
  // drained value: every charge lands in exactly one accounting period even
  // while a batch is in flight on an AsyncDispatcher (pinned under TSAN by
  // obs_test.cc).
  uint64_t DrainQueryCount() {
    return queries_used_.exchange(0, std::memory_order_relaxed);
  }

  // Resets the per-run statistics — the query counter and the query log —
  // so a reused client starts a fresh accounting period. The counter drain
  // is atomic (DrainQueryCount); clearing the query log still requires no
  // batch in flight.
  void ResetQueryCount() {
    (void)DrainQueryCount();
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

  // True if `upcoming` more queries fit in the budget (always true when the
  // budget is unlimited).
  bool HasBudget(uint64_t upcoming = 1) const;
  uint64_t budget() const { return options_.budget; }

  // Appends a pass-through selection condition to every future query
  // (§5.1, e.g. NAME = 'Starbucks' on Google Places). Pass nullptr to clear.
  void SetPassThroughFilter(TupleFilter filter) {
    filter_ = std::move(filter);
  }

  // True when the service ranks by plain ascending distance, i.e. results
  // arrive already in the nearest-neighbor order the Theorem-1 rank tests
  // need and clients may skip their re-sort.
  bool distance_ranked() const {
    return server_->options().ranking == RankingMode::kDistance;
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
  // Issues one counted query through the transport; the cost charged is
  // the transport's attempt count.
  std::vector<ServerHit> RawQuery(const Vec2& q);

  // Issues `points.size()` independent counted queries and returns the
  // result pages in submission order. With an attached BatchExecutor the
  // backend work is pipelined across its workers; either way the pages,
  // accounting, and query log are identical to issuing the points through
  // RawQuery one at a time (transport metrics included — see the
  // determinism contract in transport/simulated_transport.h).
  std::vector<std::vector<ServerHit>> RawQueryBatch(
      const std::vector<Vec2>& points);

  const LbsServer* server_;

 private:
  // Charges `attempts` interface attempts for one counted query at `q`.
  void ChargeQuery(const Vec2& q, uint64_t attempts) {
    queries_used_.fetch_add(attempts, std::memory_order_relaxed);
    queries_counter_.Add(attempts);
    if (log_queries_) query_log_.push_back(q);
  }

  ClientOptions options_;
  std::optional<DirectTransport> direct_;  // the wire when none is given
  LbsTransport* transport_;
  BatchExecutor* batch_;
  int k_;
  TupleFilter filter_;
  std::atomic<uint64_t> queries_used_{0};
  bool log_queries_ = false;
  std::vector<Vec2> query_log_;
  obs::CounterRef queries_counter_;
  obs::Tracer* tracer_ = nullptr;
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
  // ring scans): same pages and accounting as calling Query() point by
  // point, but pipelined through the client's BatchExecutor when one is
  // attached.
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

}  // namespace lbsagg

#endif  // LBSAGG_LBS_CLIENT_H_
