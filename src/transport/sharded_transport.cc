#include "transport/sharded_transport.h"

#include <algorithm>
#include <utility>

#include "geometry/loc_key.h"  // SplitMix64
#include "util/check.h"

namespace lbsagg {

ShardedTransport::ShardedTransport(const LbsServer* server,
                                   ShardedTransportOptions options)
    : server_(server),
      options_(std::move(options)),
      latency_model_(options_.latency),
      requests_counter_(
          obs::GetCounter(options_.registry, "transport.sharded.requests")),
      fanout_counter_(
          obs::GetCounter(options_.registry, "transport.sharded.fanout")),
      partial_failure_counter_(obs::GetCounter(
          options_.registry, "transport.sharded.partial_failures")),
      fulfills_counter_(
          obs::GetCounter(options_.registry, "transport.sharded.fulfills")),
      latency_histogram_(LatencyMsHistogram(options_.registry,
                                            "transport.sharded.latency_ms")) {
  LBSAGG_CHECK(server_ != nullptr);
  LBSAGG_CHECK_GE(options_.retry.max_attempts, 1);
  const int shards = server_->num_shards();
  lanes_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    const FaultOptions& faults =
        static_cast<size_t>(s) < options_.shard_faults.size()
            ? options_.shard_faults[s]
            : options_.faults;
    const uint64_t lane_seed =
        SplitMix64(options_.seed ^
                   (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(s) + 1)));
    lanes_.emplace_back(
        options_.rate_limit, faults, lane_seed,
        obs::GetCounter(options_.registry,
                        obs::ShardMetricName("transport", s, "attempts")),
        LatencyMsHistogram(options_.registry,
                           obs::ShardMetricName("transport", s, "latency_ms")));
  }
}

TransportPlan ShardedTransport::Prepare(const Vec2& q, int) {
  const std::vector<int> targets = server_->ReachableShards(q);

  std::lock_guard<std::mutex> lock(mu_);
  TransportPlan plan;
  plan.ticket = next_ticket_++;
  ++metrics_.requests;
  requests_counter_.Add(1);
  fanout_counter_.Add(targets.size());

  const double depart = virtual_now_ms_;
  double done = depart;
  double dispatch = depart;
  int max_attempts = 0;
  Fanout fanout;
  fanout.reserve(targets.size());
  // When lanes disagree, the lowest-shard-id undelivered lane wins
  // outright; among delivered lanes, kTruncated wins over kOk.
  TransportOutcome first_failure = TransportOutcome::kOk;
  TransportOutcome worst_delivered = TransportOutcome::kOk;
  for (int s : targets) {
    LaneDecision lane;
    done = std::max(done, lanes_[s].Run(plan.ticket, depart, latency_model_,
                                        options_.retry, options_.tracer,
                                        "transport.shard.request", &lane));
    dispatch = std::max(dispatch, lane.dispatch_ms);
    max_attempts = std::max(max_attempts, lane.attempts);
    if (!Delivered(lane.outcome) && first_failure == TransportOutcome::kOk) {
      first_failure = lane.outcome;
    }
    if (lane.outcome == TransportOutcome::kTruncated) {
      worst_delivered = TransportOutcome::kTruncated;
    }
    fanout.emplace_back(s, lane);
  }

  // A query beyond every shard's coverage never leaves the client's NIC in
  // this simulation, but it is still one interface round against the §2.1
  // budget — the monolithic server charges the same query one attempt too.
  plan.attempts = std::max(1, max_attempts);
  plan.outcome = first_failure != TransportOutcome::kOk ? first_failure
                                                        : worst_delivered;
  plan.latency_ms = done - depart;
  // Sequential client: the next query departs when this one completes.
  // Pipelined client: it departs once the limiters grant this one's final
  // attempt — completion latency overlaps the next query's flight.
  virtual_now_ms_ = options_.pipelined_clock ? dispatch : done;
  if (!Delivered(plan.outcome)) partial_failure_counter_.Add(1);

  if (options_.tracer != nullptr) {
    options_.tracer->AddComplete("transport.request", "transport",
                                 depart * 1000.0, plan.latency_ms * 1000.0);
  }
  ++metrics_.outcomes[static_cast<int>(plan.outcome)];
  metrics_.attempts += static_cast<uint64_t>(plan.attempts);
  metrics_.retries += static_cast<uint64_t>(plan.attempts - 1);
  metrics_.latency_ms += plan.latency_ms;
  latency_histogram_.Observe(plan.latency_ms);
  metrics_.RecordAttemptsForRequest(plan.attempts);

  pending_.emplace(plan.ticket, std::move(fanout));
  return plan;
}

TransportReply ShardedTransport::Fulfill(const TransportPlan& plan,
                                         const Vec2& q, int k,
                                         const TupleFilter& filter) const {
  fulfills_counter_.Add(1);
  Fanout fanout;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(plan.ticket);
    LBSAGG_CHECK(it != pending_.end())
        << "plan fulfilled twice or never prepared";
    fanout = std::move(it->second);
    pending_.erase(it);
  }

  TransportReply reply;
  reply.outcome = plan.outcome;
  reply.attempts = plan.attempts;
  reply.latency_ms = plan.latency_ms;
  if (!Delivered(plan.outcome)) return reply;  // typed failure, empty page

  std::vector<std::vector<ServerHit>> pages;
  pages.reserve(fanout.size());
  for (const auto& [shard, lane] : fanout) {
    std::vector<ServerHit> page = server_->QueryShard(shard, q, k, filter);
    TruncatePage(lane.outcome, lane.truncate_u, &page);
    pages.push_back(std::move(page));
  }
  reply.hits = server_->MergeShardPages(q, pages, k);
  return reply;
}

TransportMetrics ShardedTransport::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

TransportMetrics ShardedTransport::ShardMetrics(int shard) const {
  LBSAGG_CHECK_GE(shard, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(shard), lanes_.size());
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_[shard].metrics();
}

void ShardedTransport::ResetMetrics() {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = TransportMetrics{};
  for (PolicyLane& lane : lanes_) lane.ResetMetrics();
}

double ShardedTransport::VirtualNowMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

}  // namespace lbsagg
