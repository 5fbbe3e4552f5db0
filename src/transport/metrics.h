#ifndef LBSAGG_TRANSPORT_METRICS_H_
#define LBSAGG_TRANSPORT_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "transport/transport.h"

namespace lbsagg {

// Everything a transport observed, in deterministic order of recording.
// Comparable with == so determinism tests can assert bit-equality. The
// latency distribution lives on the metric plane (the transport's
// *.latency_ms histograms); this struct keeps its total.
struct TransportMetrics {
  uint64_t requests = 0;  // logical queries
  uint64_t attempts = 0;  // interface attempts (== the §2.1 query cost)
  uint64_t retries = 0;   // attempts - requests, spent on retryable faults

  // Final outcome of each logical query, indexed by TransportOutcome.
  uint64_t outcomes[kNumTransportOutcomes] = {};

  // Attempt-level fault counts (a retried query contributes several).
  uint64_t attempt_transient_errors = 0;
  uint64_t attempt_timeouts = 0;

  // Rate-limiter stalls.
  uint64_t throttle_events = 0;
  double throttle_wait_ms = 0.0;

  // Summed end-to-end simulated latency of the logical queries (incl.
  // backoff + throttle).
  double latency_ms = 0.0;

  // attempts_histogram[i] = logical queries that took exactly i+1 attempts.
  std::vector<uint64_t> attempts_histogram;

  void RecordAttemptsForRequest(int attempts_used);

  // Multi-line pretty-printed JSON document; the two millisecond totals
  // print at shortest round-trip precision.
  std::string ToJson(int indent = 0) const;

  bool operator==(const TransportMetrics&) const = default;
};

}  // namespace lbsagg

#endif  // LBSAGG_TRANSPORT_METRICS_H_
