#include "transport/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/obs.h"

namespace lbsagg {

namespace {

int BucketIndex(double ms) {
  if (ms < 1.0) return 0;
  const int idx = 1 + static_cast<int>(std::floor(std::log2(ms)));
  return std::min(idx, LatencyHistogram::kBuckets - 1);
}

double BucketUpperMs(int idx) {
  return std::ldexp(1.0, idx);  // bucket i covers [2^(i-1), 2^i)
}

}  // namespace

void LatencyHistogram::Add(double ms) {
  ++buckets_[BucketIndex(ms)];
  ++count_;
  total_ms_ += ms;
}

double LatencyHistogram::QuantileUpperBound(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= target) return BucketUpperMs(i);
  }
  return BucketUpperMs(kBuckets - 1);
}

std::string LatencyHistogram::ToJson() const {
  std::ostringstream os;
  os << "{\"count\":" << count_
     << ",\"mean_ms\":" << mean_ms()
     << ",\"p50_le_ms\":" << QuantileUpperBound(0.5)
     << ",\"p99_le_ms\":" << QuantileUpperBound(0.99)
     << ",\"buckets\":[";
  for (int i = 0; i < kBuckets; ++i) {
    if (i > 0) os << ',';
    os << buckets_[i];
  }
  os << "]}";
  return os.str();
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ms_ += other.total_ms_;
}

void TransportMetrics::RecordAttemptsForRequest(int attempts_used) {
  const size_t idx = static_cast<size_t>(attempts_used - 1);
  if (attempts_histogram.size() <= idx) attempts_histogram.resize(idx + 1);
  ++attempts_histogram[idx];
}

std::string TransportMetrics::ToJson(int indent) const {
  const std::string pad(indent, ' ');
  const std::string in(indent + 2, ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << in << "\"requests\": " << requests << ",\n";
  os << in << "\"attempts\": " << attempts << ",\n";
  os << in << "\"retries\": " << retries << ",\n";
  os << in << "\"outcomes\": {";
  for (int i = 0; i < kNumTransportOutcomes; ++i) {
    if (i > 0) os << ", ";
    os << '"' << TransportOutcomeName(static_cast<TransportOutcome>(i))
       << "\": " << outcomes[i];
  }
  os << "},\n";
  os << in << "\"attempt_transient_errors\": " << attempt_transient_errors
     << ",\n";
  os << in << "\"attempt_timeouts\": " << attempt_timeouts << ",\n";
  os << in << "\"throttle_events\": " << throttle_events << ",\n";
  os << in << "\"throttle_wait_ms\": " << throttle_wait_ms << ",\n";
  os << in << "\"latency_ms\": " << latency.ToJson() << ",\n";
  os << in << "\"attempts_per_request\": [";
  for (size_t i = 0; i < attempts_histogram.size(); ++i) {
    if (i > 0) os << ',';
    os << attempts_histogram[i];
  }
  os << "]\n";
  os << pad << "}";
  return os.str();
}

Table TransportMetrics::ToTable() const {
  Table table({"metric", "value"});
  table.AddRow({"requests", Table::Int(static_cast<long long>(requests))});
  table.AddRow({"attempts", Table::Int(static_cast<long long>(attempts))});
  table.AddRow({"retries", Table::Int(static_cast<long long>(retries))});
  for (int i = 0; i < kNumTransportOutcomes; ++i) {
    table.AddRow({std::string("outcome.") +
                      TransportOutcomeName(static_cast<TransportOutcome>(i)),
                  Table::Int(static_cast<long long>(outcomes[i]))});
  }
  table.AddRow({"attempt_transient_errors",
                Table::Int(static_cast<long long>(attempt_transient_errors))});
  table.AddRow({"attempt_timeouts",
                Table::Int(static_cast<long long>(attempt_timeouts))});
  table.AddRow({"throttle_events",
                Table::Int(static_cast<long long>(throttle_events))});
  table.AddRow({"throttle_wait_ms", Table::Num(throttle_wait_ms, 3)});
  table.AddRow({"latency.mean_ms", Table::Num(latency.mean_ms(), 3)});
  table.AddRow(
      {"latency.p99_le_ms", Table::Num(latency.QuantileUpperBound(0.99), 3)});
  return table;
}

void TransportMetrics::Merge(const TransportMetrics& other) {
  requests += other.requests;
  attempts += other.attempts;
  retries += other.retries;
  for (int i = 0; i < kNumTransportOutcomes; ++i) {
    outcomes[i] += other.outcomes[i];
  }
  attempt_transient_errors += other.attempt_transient_errors;
  attempt_timeouts += other.attempt_timeouts;
  throttle_events += other.throttle_events;
  throttle_wait_ms += other.throttle_wait_ms;
  latency.Merge(other.latency);
  if (attempts_histogram.size() < other.attempts_histogram.size()) {
    attempts_histogram.resize(other.attempts_histogram.size());
  }
  for (size_t i = 0; i < other.attempts_histogram.size(); ++i) {
    attempts_histogram[i] += other.attempts_histogram[i];
  }
}

void PublishTransportMetrics(const TransportMetrics& metrics,
                             obs::MetricsRegistry* registry) {
  obs::GetCounter(registry, "transport.requests").Add(metrics.requests);
  obs::GetCounter(registry, "transport.attempts").Add(metrics.attempts);
  obs::GetCounter(registry, "transport.retries").Add(metrics.retries);
  for (int i = 0; i < kNumTransportOutcomes; ++i) {
    obs::GetCounter(registry,
                    std::string("transport.outcome.") +
                        TransportOutcomeName(static_cast<TransportOutcome>(i)))
        .Add(metrics.outcomes[i]);
  }
  obs::GetCounter(registry, "transport.attempt_transient_errors")
      .Add(metrics.attempt_transient_errors);
  obs::GetCounter(registry, "transport.attempt_timeouts")
      .Add(metrics.attempt_timeouts);
  obs::GetCounter(registry, "transport.throttle_events")
      .Add(metrics.throttle_events);
  obs::GetGauge(registry, "transport.throttle_wait_ms")
      .Set(metrics.throttle_wait_ms);
  obs::GetGauge(registry, "transport.latency_mean_ms")
      .Set(metrics.latency.mean_ms());
  obs::GetGauge(registry, "transport.latency_p50_le_ms")
      .Set(metrics.latency.QuantileUpperBound(0.5));
  obs::GetGauge(registry, "transport.latency_p99_le_ms")
      .Set(metrics.latency.QuantileUpperBound(0.99));
}

}  // namespace lbsagg
