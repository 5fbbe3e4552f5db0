#ifndef LBSAGG_OBS_METRICS_H_
#define LBSAGG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lbsagg {
namespace obs {

// The process-wide (but explicitly injectable) metric plane. Three cell
// kinds — monotonic counters, last-write gauges, fixed-bucket histograms —
// registered by name in a MetricsRegistry. Cells are pointer-stable for the
// registry's lifetime, so hot paths resolve a name to a cell once (at
// construction) and afterwards pay exactly one relaxed atomic RMW per
// increment; the registry lock guards only name registration and snapshots.
//
// Naming scheme (DESIGN.md §4.8): `<layer>.<component>.<metric>`, e.g.
// `spatial.kdtree.nodes_visited`, `client.queries`,
// `estimator.lr.cells_exact`, `transport.attempts`.
//
// Accounting-period contract: SnapshotAndReset() drains every cell with an
// atomic exchange, so each concurrent increment lands in exactly one
// accounting period — sum(period snapshots) + live value == total, even
// while dispatcher workers are incrementing (pinned under TSAN by
// obs_test.cc). Cross-*cell* consistency is not promised: an increment
// racing the snapshot may appear one period later than a related cell's.

// Monotonic counter. Increments are relaxed: counters order nothing.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // Returns the current value and resets to zero in one atomic step.
  uint64_t Drain() { return value_.exchange(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins double (a level, not a rate: virtual clock, queue depth).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  double Drain() { return value_.exchange(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i], the
// implicit last bucket is unbounded. Bounds are fixed at registration so
// Observe() is a binary search plus two relaxed RMWs (bucket + count) and a
// CAS loop for the running sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<uint64_t> BucketCounts() const;

 private:
  friend class MetricsRegistry;  // drains cells for SnapshotAndReset

  std::vector<double> bounds_;                   // ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Default bounds for the two recurring shapes: Horvitz–Thompson weights
// (decades from 1 to 1e8) and small integer depths/counts (1..64).
std::vector<double> DecadeBounds(double lo, double hi);
std::vector<double> SmallCountBounds(int hi);

// One metric's value at snapshot time. Name-sorted within a snapshot, so
// two snapshots of the same run compare bit-identically with ==.
struct CounterSample {
  std::string name;
  uint64_t value = 0;
  bool operator==(const CounterSample&) const = default;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
  bool operator==(const GaugeSample&) const = default;
};
struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  // bounds.size() + 1 (last unbounded)
  uint64_t count = 0;
  double sum = 0.0;
  bool operator==(const HistogramSample&) const = default;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  // `{"counters":{...},"gauges":{...},"histograms":{...}}`, keys sorted.
  std::string ToJson(int indent = 0) const;

  bool operator==(const MetricsSnapshot&) const = default;
};

// Create-or-get registry of named cells. Thread-safe; returned pointers
// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `bounds` applies on first registration; later calls return the existing
  // histogram unchanged (bounds are part of the cell's identity).
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  // Copies every cell's current value (cells keep counting).
  MetricsSnapshot Snapshot() const;

  // Drains every cell to zero via atomic exchange and returns the drained
  // values: the snapshot-then-reset primitive. Safe against concurrent
  // increments — see the accounting-period contract above.
  MetricsSnapshot SnapshotAndReset();

  // The process-wide registry instrumented code falls back to when no
  // registry is injected.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mu_;  // guards the maps; cell access is lock-free
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Canonical name for a per-shard metric: "<prefix>.shard<NN>.<metric>"
// with a zero-padded shard number, so the name-sorted order inside a
// MetricsSnapshot is also shard order (e.g. "transport.shard03.attempts").
std::string ShardMetricName(const std::string& prefix, int shard,
                            const std::string& metric);

}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_METRICS_H_
