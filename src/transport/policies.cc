#include "transport/policies.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/check.h"

namespace lbsagg {

namespace {
// Hash salts keeping the independent draw families independent.
constexpr uint64_t kSaltLatency = 0x1a7e9c5;
constexpr uint64_t kSaltLatencyPhase = 0x1a7e9c6;
constexpr uint64_t kSaltFault = 0xfa017;
constexpr uint64_t kSaltTruncate = 0x7a11;
constexpr uint64_t kSaltJitter = 0x317732;
}  // namespace

double LatencyModel::Sample(uint64_t seed, uint64_t ticket,
                            int attempt) const {
  double ms = options_.fixed_ms;
  if (options_.kind == LatencyOptions::Kind::kLognormal) {
    // Box–Muller from two hashed uniforms; u1 is kept away from 0.
    const double u1 =
        std::max(TicketUniform01(seed, ticket, attempt, kSaltLatency), 1e-12);
    const double u2 = TicketUniform01(seed, ticket, attempt, kSaltLatencyPhase);
    const double normal =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    ms = std::exp(std::log(options_.lognormal_median_ms) +
                  options_.lognormal_sigma * normal);
  }
  return std::max(ms, options_.min_ms);
}

TokenBucket::TokenBucket(TokenBucketOptions options)
    : options_(options), tokens_(options.capacity) {
  if (enabled()) LBSAGG_CHECK_GT(options_.refill_per_sec, 0.0);
}

double TokenBucket::AcquireAt(double now_ms) {
  if (!enabled()) return now_ms;
  const double refill_per_ms = options_.refill_per_sec / 1000.0;
  // Queue behind earlier acquirers; refill for the elapsed virtual time.
  const double at = std::max(now_ms, last_ms_);
  tokens_ = std::min(options_.capacity,
                     tokens_ + (at - last_ms_) * refill_per_ms);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    last_ms_ = at;
    return at;
  }
  const double wait = (1.0 - tokens_) / refill_per_ms;
  tokens_ = 0.0;
  last_ms_ = at + wait;
  return last_ms_;
}

FaultInjector::FaultInjector(FaultOptions options, uint64_t seed)
    : options_(options), seed_(seed) {
  LBSAGG_CHECK_GE(options.transient_error_rate, 0.0);
  LBSAGG_CHECK_GE(options.timeout_rate, 0.0);
  LBSAGG_CHECK_GE(options.truncate_rate, 0.0);
  LBSAGG_CHECK_LE(options.transient_error_rate + options.timeout_rate +
                      options.truncate_rate,
                  1.0);
}

AttemptFault FaultInjector::Draw(uint64_t ticket, int attempt) const {
  const double u = TicketUniform01(seed_, ticket, attempt, kSaltFault);
  AttemptFault fault;
  if (u < options_.timeout_rate) {
    fault.kind = AttemptFault::Kind::kTimeout;
  } else if (u < options_.timeout_rate + options_.transient_error_rate) {
    fault.kind = AttemptFault::Kind::kTransientError;
  } else if (u < options_.timeout_rate + options_.transient_error_rate +
                     options_.truncate_rate) {
    fault.kind = AttemptFault::Kind::kTruncated;
    fault.truncate_u = TicketUniform01(seed_, ticket, attempt, kSaltTruncate);
  }
  return fault;
}

double BackoffMs(const RetryOptions& options, uint64_t seed, uint64_t ticket,
                 int attempt) {
  const double uncapped =
      options.base_backoff_ms * std::ldexp(1.0, std::min(attempt - 1, 30));
  const double capped = std::min(uncapped, options.max_backoff_ms);
  const double u = TicketUniform01(seed, ticket, attempt, kSaltJitter);
  const double factor = 1.0 + options.jitter * (2.0 * u - 1.0);
  return capped * factor;
}

void TruncatePage(double truncate_u, std::vector<ServerHit>* page) {
  if (page->empty()) return;
  const size_t size = page->size();
  page->resize(std::min(
      size - 1, static_cast<size_t>(truncate_u * static_cast<double>(size))));
}

obs::HistogramRef LatencyMsHistogram(obs::MetricsRegistry* registry,
                                     const std::string& name) {
  return obs::GetHistogram(registry, name, obs::SmallCountBounds(1 << 16));
}

PolicyLane::PolicyLane(const TokenBucketOptions& rate_limit,
                       const FaultOptions& faults, uint64_t seed,
                       obs::CounterRef attempts_counter,
                       obs::HistogramRef latency_histogram)
    : bucket_(rate_limit),
      faults_(faults, seed),
      seed_(seed),
      attempts_counter_(attempts_counter),
      latency_histogram_(latency_histogram) {}

double PolicyLane::Run(uint64_t ticket, double depart_ms,
                       const LatencyModel& latency_model,
                       const RetryOptions& retry, obs::Tracer* tracer,
                       LaneDecision* decision) {
  ++metrics_.requests;
  decision->attempts = 0;
  decision->dispatch_ms = depart_ms;
  double t = depart_ms;
  for (int attempt = 1;; ++attempt) {
    // One rate-limit token per interface attempt.
    const double service = bucket_.AcquireAt(t);
    if (service > t) {
      ++metrics_.throttle_events;
      metrics_.throttle_wait_ms += service - t;
      t = service;
    }
    decision->dispatch_ms = t;
    ++decision->attempts;
    ++metrics_.attempts;
    attempts_counter_.Add(1);

    const AttemptFault fault = faults_.Draw(ticket, attempt);
    double attempt_ms = latency_model.Sample(seed_, ticket, attempt);
    if (fault.kind == AttemptFault::Kind::kTimeout) {
      attempt_ms = faults_.options().timeout_ms;
    }
    if (tracer != nullptr) {
      // The attempt span starts when the rate limiter releases the attempt.
      tracer->AddComplete("transport.attempt", "transport", t * 1000.0,
                          attempt_ms * 1000.0);
    }
    t += attempt_ms;

    if (fault.kind == AttemptFault::Kind::kNone) {
      decision->outcome = TransportOutcome::kOk;
      break;
    }
    if (fault.kind == AttemptFault::Kind::kTruncated) {
      // Degraded success: the page arrived minus a suffix. Not retried —
      // the client cannot tell a truncated page from a sparse area.
      decision->outcome = TransportOutcome::kTruncated;
      decision->truncate_u = fault.truncate_u;
      break;
    }

    // Retryable failure.
    if (fault.kind == AttemptFault::Kind::kTimeout) {
      ++metrics_.attempt_timeouts;
    } else {
      ++metrics_.attempt_transient_errors;
    }
    if (retries_spent_ >= retry.retry_budget) {
      decision->outcome = TransportOutcome::kFatal;  // fail fast: budget spent
      break;
    }
    if (attempt >= retry.max_attempts) {
      decision->outcome = fault.kind == AttemptFault::Kind::kTimeout
                              ? TransportOutcome::kTimeout
                              : TransportOutcome::kTransientError;
      break;
    }
    ++retries_spent_;
    ++metrics_.retries;
    t += BackoffMs(retry, seed_, ticket, attempt);
  }

  if (tracer != nullptr) {
    tracer->AddComplete("transport.shard.request", "transport",
                        depart_ms * 1000.0, (t - depart_ms) * 1000.0);
  }
  ++metrics_.outcomes[static_cast<int>(decision->outcome)];
  metrics_.latency_ms += t - depart_ms;
  latency_histogram_.Observe(t - depart_ms);
  metrics_.RecordAttemptsForRequest(decision->attempts);
  return t;
}

}  // namespace lbsagg
