#include "transport/simulated_transport.h"

#include "util/check.h"

namespace lbsagg {

SimulatedTransport::SimulatedTransport(const LbsServer* server,
                                       SimulatedTransportOptions options)
    : server_(server),
      options_(options),
      latency_model_(options.latency),
      lane_(options.rate_limit, options.faults, options.seed,
            obs::CounterRef(),
            LatencyMsHistogram(options.registry, "transport.latency_ms")),
      fulfills_counter_(
          obs::GetCounter(options.registry, "transport.fulfills")) {
  LBSAGG_CHECK(server_ != nullptr);
  LBSAGG_CHECK_GE(options_.retry.max_attempts, 1);
}

TransportPlan SimulatedTransport::Prepare(const Vec2&, int) {
  std::lock_guard<std::mutex> lock(mu_);
  TransportPlan plan;
  plan.ticket = next_ticket_++;
  LaneDecision decision;
  const double done =
      lane_.Run(plan.ticket, virtual_now_ms_, latency_model_, options_.retry,
                options_.tracer, "transport.request", &decision);
  plan.attempts = decision.attempts;
  plan.outcome = decision.outcome;
  plan.truncate_u = decision.truncate_u;
  plan.latency_ms = done - virtual_now_ms_;
  virtual_now_ms_ = done;  // sequential-client clock: next query departs now
  return plan;
}

TransportReply SimulatedTransport::Fulfill(const TransportPlan& plan,
                                           const Vec2& q, int k,
                                           const TupleFilter& filter) const {
  fulfills_counter_.Add(1);
  TransportReply reply;
  reply.outcome = plan.outcome;
  reply.attempts = plan.attempts;
  reply.latency_ms = plan.latency_ms;
  if (Delivered(plan.outcome)) {
    reply.hits = server_->Query(q, k, filter);
    TruncatePage(plan.outcome, plan.truncate_u, &reply.hits);
  }
  return reply;
}

TransportMetrics SimulatedTransport::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lane_.metrics();
}

void SimulatedTransport::ResetMetrics() {
  std::lock_guard<std::mutex> lock(mu_);
  lane_.ResetMetrics();
}

double SimulatedTransport::VirtualNowMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

}  // namespace lbsagg
