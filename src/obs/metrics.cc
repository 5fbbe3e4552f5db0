#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  LBSAGG_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  // lower_bound keeps the documented inclusive-upper-bound contract:
  // an observation equal to bounds[i] lands in bucket i.
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // C++20 atomic<double>::fetch_add is not universally lock-free yet; the
  // CAS loop is, and the sum is off every hot path (one Observe per HT
  // contribution / probe search, not per kd-tree node).
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<double> DecadeBounds(double lo, double hi) {
  LBSAGG_CHECK_GT(lo, 0.0);
  std::vector<double> bounds;
  for (double b = lo; b <= hi * (1.0 + 1e-12); b *= 10.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> SmallCountBounds(int hi) {
  std::vector<double> bounds;
  for (int b = 1; b <= hi; b *= 2) bounds.push_back(static_cast<double>(b));
  return bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back({name, cell->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back({name, cell->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    snap.histograms.push_back(
        {name, cell->bounds(), cell->BucketCounts(), cell->count(),
         cell->sum()});
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::SnapshotAndReset() {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.push_back({name, cell->Drain()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.push_back({name, cell->Drain()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, cell] : histograms_) {
    HistogramSample sample;
    sample.name = name;
    sample.bounds = cell->bounds();
    sample.buckets.resize(sample.bounds.size() + 1);
    for (size_t i = 0; i <= sample.bounds.size(); ++i) {
      sample.buckets[i] =
          cell->buckets_[i].exchange(0, std::memory_order_relaxed);
    }
    sample.count = cell->count_.exchange(0, std::memory_order_relaxed);
    sample.sum = cell->sum_.exchange(0.0, std::memory_order_relaxed);
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::string MetricsSnapshot::ToJson(int indent) const {
  const std::string pad(indent, ' ');
  const std::string in(indent + 2, ' ');
  const std::string in2(indent + 4, ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << in << "\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << in2 << '"' << counters[i].name
       << "\": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n" + in) << "},\n";
  os << in << "\"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << in2 << '"' << gauges[i].name
       << "\": " << JsonWriter::Shortest(gauges[i].value);
  }
  os << (gauges.empty() ? "" : "\n" + in) << "},\n";
  os << in << "\"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    os << (i == 0 ? "\n" : ",\n") << in2 << '"' << h.name
       << "\": {\"count\":" << h.count
       << ",\"sum\":" << JsonWriter::Shortest(h.sum) << ",\"bounds\":[";
    for (size_t j = 0; j < h.bounds.size(); ++j) {
      if (j > 0) os << ',';
      os << JsonWriter::Shortest(h.bounds[j]);
    }
    os << "],\"buckets\":[";
    for (size_t j = 0; j < h.buckets.size(); ++j) {
      if (j > 0) os << ',';
      os << h.buckets[j];
    }
    os << "]}";
  }
  os << (histograms.empty() ? "" : "\n" + in) << "}\n";
  os << pad << "}";
  return os.str();
}

std::string ShardMetricName(const std::string& prefix, int shard,
                            const std::string& metric) {
  LBSAGG_CHECK_GE(shard, 0);
  std::ostringstream os;
  os << prefix << ".shard" << (shard < 10 ? "0" : "") << shard << '.'
     << metric;
  return os.str();
}

}  // namespace obs
}  // namespace lbsagg
