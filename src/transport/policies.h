#ifndef LBSAGG_TRANSPORT_POLICIES_H_
#define LBSAGG_TRANSPORT_POLICIES_H_

// Pluggable policies — latency model, token-bucket rate limiter, seeded
// fault injector, and retry policy — and the PolicyLane that composes them
// into the per-attempt pipeline every lane of the simulated wire
// (transport/sharded_transport.h) runs.
//
// Determinism contract: every random draw is a *pure function* of
// (seed, ticket, attempt, salt) — a hash, not a shared generator stream —
// so a request's fate never depends on how many draws other requests made
// or on which worker thread touched it first. Combined with sequential
// Prepare() ordering this makes the whole simulation bit-reproducible for
// any dispatcher thread count (transport_determinism_test.cc).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "geometry/loc_key.h"  // SplitMix64
#include "obs/obs.h"
#include "transport/metrics.h"
#include "transport/transport.h"

namespace lbsagg {

namespace obs {
class Tracer;
}  // namespace obs

// Uniform in [0, 1), pure function of its arguments.
inline double TicketUniform01(uint64_t seed, uint64_t ticket, int attempt,
                              uint64_t salt) {
  uint64_t h = SplitMix64(seed ^ SplitMix64(salt));
  h = SplitMix64(h ^ ticket);
  h = SplitMix64(h ^ static_cast<uint64_t>(attempt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Latency model

struct LatencyOptions {
  enum class Kind { kFixed, kLognormal };
  Kind kind = Kind::kFixed;

  // kFixed: every attempt takes exactly this long.
  double fixed_ms = 50.0;

  // kLognormal: exp(N(log(median_ms), sigma)) — the classic heavy-tailed
  // service-latency shape (median 50 ms, sigma 0.5 puts p99 near 160 ms).
  double lognormal_median_ms = 50.0;
  double lognormal_sigma = 0.5;

  // Floor applied to every sample.
  double min_ms = 1.0;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyOptions options) : options_(options) {}

  // Simulated duration of one attempt, in ms.
  double Sample(uint64_t seed, uint64_t ticket, int attempt) const;

 private:
  LatencyOptions options_;
};

// ---------------------------------------------------------------------------
// Token-bucket rate limiter (server-side quota, e.g. Google Places QPS)

struct TokenBucketOptions {
  // Burst capacity in requests; 0 disables the limiter.
  double capacity = 0.0;
  // Steady-state refill rate, requests per (simulated) second.
  double refill_per_sec = 10.0;
};

// Deterministic virtual-time token bucket: one token per interface attempt.
// Not thread-safe — its PolicyLane's transport drives it under a lock.
class TokenBucket {
 public:
  explicit TokenBucket(TokenBucketOptions options);

  bool enabled() const { return options_.capacity > 0.0; }

  // Takes one token; returns the virtual time (>= now_ms) at which the
  // attempt may proceed. Time never flows backwards: a caller presenting an
  // earlier `now_ms` than a previous caller queues behind it.
  double AcquireAt(double now_ms);

 private:
  TokenBucketOptions options_;
  double tokens_;
  double last_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Fault injector

struct FaultOptions {
  // Independent per-attempt probabilities (their sum must be <= 1).
  double transient_error_rate = 0.0;  // HTTP-5xx-style, retryable
  double timeout_rate = 0.0;          // deadline miss, retryable
  double truncate_rate = 0.0;         // page delivered minus a suffix

  // Simulated cost of a timed-out attempt.
  double timeout_ms = 1000.0;
};

// What the injector decided for one interface attempt.
struct AttemptFault {
  enum class Kind { kNone, kTransientError, kTimeout, kTruncated };
  Kind kind = Kind::kNone;
  double truncate_u = 0.0;  // kTruncated: uniform deciding the kept prefix
};

class FaultInjector {
 public:
  FaultInjector(FaultOptions options, uint64_t seed);

  // Pure function of (seed, ticket, attempt).
  AttemptFault Draw(uint64_t ticket, int attempt) const;

  const FaultOptions& options() const { return options_; }

 private:
  FaultOptions options_;
  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// Retry policy

struct RetryOptions {
  // Attempts per logical query, including the first; 1 = never retry.
  int max_attempts = 4;

  // Capped exponential backoff: base * 2^(attempt-1), clamped to max, then
  // scaled by a deterministic jitter factor in [1 - jitter, 1 + jitter].
  double base_backoff_ms = 100.0;
  double max_backoff_ms = 2000.0;
  double jitter = 0.5;

  // Total retries allowed across the transport's lifetime (a crawl-level
  // error budget); once spent, failed queries are abandoned after their
  // first attempt. Unlimited by default.
  uint64_t retry_budget = std::numeric_limits<uint64_t>::max();
};

// Backoff before retry number `attempt` (the attempt just failed was
// 1-based `attempt`), with deterministic jitter.
double BackoffMs(const RetryOptions& options, uint64_t seed, uint64_t ticket,
                 int attempt);

// ---------------------------------------------------------------------------
// Policy lane

// Cuts a truncated page to a strict prefix: at least 0, at most size-1
// hits survive, the kept share set by the attempt's uniform `truncate_u`.
void TruncatePage(double truncate_u, std::vector<ServerHit>* page);

// The request-latency histogram `name` on `registry` (null = the default
// plane): power-of-two bounds from 1 ms to 2^16 ms, the last bucket open.
obs::HistogramRef LatencyMsHistogram(obs::MetricsRegistry* registry,
                                     const std::string& name);

// What one lane decided for one logical query.
struct LaneDecision {
  TransportOutcome outcome = TransportOutcome::kOk;
  int attempts = 0;
  double truncate_u = 0.0;   // kTruncated: uniform deciding the kept prefix
  double dispatch_ms = 0.0;  // when the final attempt entered service
};

// One metered lane of the simulated wire: a token bucket, a fault injector
// and a retry budget under one seed, plus the lane's own accounting.
// ShardedTransport owns one per shard. Run() is the per-attempt policy
// pipeline:
//
//   for attempt = 1..retry.max_attempts:
//     wait for a rate-limit token        (virtual clock advances)
//     draw the attempt's latency         (fixed or lognormal)
//     draw the attempt's fault           (none / transient / timeout / trunc)
//     retryable fault and retry budget left? back off (capped exp + jitter)
//     else: final outcome
//
// Not thread-safe: the owning transport drives it under its own lock.
class PolicyLane {
 public:
  PolicyLane(const TokenBucketOptions& rate_limit, const FaultOptions& faults,
             uint64_t seed, obs::CounterRef attempts_counter,
             obs::HistogramRef latency_histogram);

  // Runs the pipeline for `ticket`, departing at virtual `depart_ms`, and
  // returns its completion time. With a `tracer`, emits one
  // "transport.shard.request" span wrapping a "transport.attempt" span per
  // attempt, stamped with the virtual-time endpoints (1 ms = 1000 ts units).
  double Run(uint64_t ticket, double depart_ms,
             const LatencyModel& latency_model, const RetryOptions& retry,
             obs::Tracer* tracer, LaneDecision* decision);

  const TransportMetrics& metrics() const { return metrics_; }
  void ResetMetrics() { metrics_ = TransportMetrics{}; }

 private:
  TokenBucket bucket_;
  FaultInjector faults_;
  uint64_t seed_;
  uint64_t retries_spent_ = 0;
  TransportMetrics metrics_;
  obs::CounterRef attempts_counter_;
  obs::HistogramRef latency_histogram_;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_POLICIES_H_
