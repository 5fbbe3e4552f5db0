#ifndef LBSAGG_OBS_INTROSPECT_SAMPLER_H_
#define LBSAGG_OBS_INTROSPECT_SAMPLER_H_

// Time-series sampler (DESIGN.md §4.13): periodically snapshots a
// MetricsRegistry and diffs consecutive snapshots into a sliding ring of
// per-period windows — counter deltas (rates), gauge levels, and histogram
// deltas with per-window p50/p99 derived from the fixed bucket bounds. The
// registry's cells keep counting undisturbed: the sampler uses the
// non-draining Snapshot(), so run reports and statusz still see lifetime
// totals.
//
// The clock is pluggable exactly like the Tracer's: bind `clock_ms` to
// ShardedTransport::VirtualNowMs (or EstimationService::NowMs) and the
// windows are cut on deterministic virtual time; leave it null for a
// steady wall clock. MaybeTick() is designed to sit inside a service drive
// loop (`while (svc.RunSlice()) sampler.MaybeTick();`) — it costs one
// clock read until the period elapses.
//
// Single-threaded by design, like the scheduler that drives it; the
// registry snapshots it takes are themselves thread-safe against concurrent
// increments (the PR-4 accounting contract). Under -DLBSAGG_OBS_DISABLED
// the sampler compiles out to a stub.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace lbsagg {
namespace obs {
namespace introspect {

// Per-window digest of one histogram: how many observations landed in the
// window and where their p50/p99 sit, interpolated inside the fixed
// buckets (Prometheus histogram_quantile arithmetic).
struct HistogramWindow {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool operator==(const HistogramWindow&) const = default;
};

// One sampling period. Series are name-sorted (snapshot order), so two
// windows of the same run compare with ==.
struct SampleWindow {
  double t0_ms = 0.0;
  double t1_ms = 0.0;
  std::vector<std::pair<std::string, uint64_t>> counters;  // deltas
  std::vector<std::pair<std::string, double>> gauges;      // levels
  std::vector<std::pair<std::string, HistogramWindow>> histograms;
  bool operator==(const SampleWindow&) const = default;
};

// Quantile q in [0,1] from fixed-bucket counts (`buckets.size() ==
// bounds.size() + 1`, last bucket unbounded), linearly interpolated inside
// the containing bucket; the unbounded tail clamps to the last bound.
// Returns 0 when the window is empty. Exposed for the unit tests.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets, double q);

struct TimeSeriesSamplerOptions {
  // Registry to sample; null = MetricsRegistry::Default().
  MetricsRegistry* registry = nullptr;
  // Window clock in ms; null = std::chrono::steady_clock.
  std::function<double()> clock_ms;
  // Minimum clock distance between MaybeTick() samples.
  double period_ms = 1000.0;
  // Sliding ring: the newest `max_windows` windows are kept.
  size_t max_windows = 64;
};

#ifndef LBSAGG_OBS_DISABLED

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(TimeSeriesSamplerOptions options = {});

  // Samples if at least period_ms elapsed since the last window boundary
  // (the first call establishes the baseline snapshot without producing a
  // window). Returns true when a window was cut.
  bool MaybeTick();

  // Unconditionally cuts a window at the current clock (first call:
  // baseline only).
  void Tick();

  size_t num_windows() const { return windows_.size(); }
  const std::deque<SampleWindow>& windows() const { return windows_; }
  // Windows ever cut, including ones the sliding ring has evicted.
  uint64_t windows_cut() const { return windows_cut_; }
  double period_ms() const { return options_.period_ms; }

  // The "timeseries" report/statusz section:
  // {"period_ms":..,"windows_cut":..,"windows":[{"t0_ms":..,"t1_ms":..,
  //  "counters":{..},"gauges":{..},"histograms":{"name":{"count":..,
  //  "sum":..,"p50":..,"p99":..}}}]}
  std::string ToJson() const;

 private:
  void CutWindow(double now_ms);

  TimeSeriesSamplerOptions options_;
  bool primed_ = false;
  double last_ms_ = 0.0;
  MetricsSnapshot previous_;
  std::deque<SampleWindow> windows_;
  uint64_t windows_cut_ = 0;
};

#else  // LBSAGG_OBS_DISABLED

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(TimeSeriesSamplerOptions = {}) {}
  bool MaybeTick() { return false; }
  void Tick() {}
  size_t num_windows() const { return 0; }
  const std::deque<SampleWindow>& windows() const {
    static const std::deque<SampleWindow> kEmpty;
    return kEmpty;
  }
  uint64_t windows_cut() const { return 0; }
  double period_ms() const { return 0.0; }
  std::string ToJson() const {
    return "{\"period_ms\":0,\"windows_cut\":0,\"windows\":[]}";
  }
};

#endif  // LBSAGG_OBS_DISABLED

}  // namespace introspect
}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_INTROSPECT_SAMPLER_H_
