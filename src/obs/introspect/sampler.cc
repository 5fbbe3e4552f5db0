#include "obs/introspect/sampler.h"

#include <algorithm>
#include <chrono>

#include "util/json_writer.h"

namespace lbsagg {
namespace obs {
namespace introspect {

double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets, double q) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) {
      // Unbounded tail: no upper edge to interpolate toward; clamp to the
      // last finite bound (Prometheus histogram_quantile does the same).
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double hi = bounds[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds[i - 1];
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) return hi;
    const double below = static_cast<double>(cumulative - in_bucket);
    const double frac = (rank - below) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

#ifndef LBSAGG_OBS_DISABLED

namespace {

double SteadyNowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(TimeSeriesSamplerOptions options)
    : options_(std::move(options)) {
  if (options_.registry == nullptr) {
    options_.registry = &MetricsRegistry::Default();
  }
  if (!options_.clock_ms) options_.clock_ms = SteadyNowMs;
  if (options_.period_ms <= 0.0) options_.period_ms = 1.0;
  if (options_.max_windows == 0) options_.max_windows = 1;
}

bool TimeSeriesSampler::MaybeTick() {
  const double now = options_.clock_ms();
  if (primed_ && now - last_ms_ < options_.period_ms) return false;
  CutWindow(now);
  return true;
}

void TimeSeriesSampler::Tick() { CutWindow(options_.clock_ms()); }

void TimeSeriesSampler::CutWindow(double now_ms) {
  MetricsSnapshot current = options_.registry->Snapshot();
  if (!primed_) {
    // First sample is the baseline; nothing to diff against yet.
    primed_ = true;
    last_ms_ = now_ms;
    previous_ = std::move(current);
    return;
  }

  SampleWindow window;
  window.t0_ms = last_ms_;
  window.t1_ms = now_ms;

  // Both snapshots are name-sorted, so each diff is a two-pointer merge; a
  // cell absent from the previous snapshot was registered inside the window
  // and diffs against zero.
  {
    size_t p = 0;
    for (const CounterSample& cur : current.counters) {
      while (p < previous_.counters.size() &&
             previous_.counters[p].name < cur.name) {
        ++p;
      }
      uint64_t prev = 0;
      if (p < previous_.counters.size() &&
          previous_.counters[p].name == cur.name) {
        prev = previous_.counters[p].value;
      }
      const uint64_t delta = cur.value >= prev ? cur.value - prev : 0;
      if (delta > 0) window.counters.emplace_back(cur.name, delta);
    }
  }
  // Gauges are levels, not rates: report the value at the window edge.
  for (const GaugeSample& cur : current.gauges) {
    window.gauges.emplace_back(cur.name, cur.value);
  }
  {
    size_t p = 0;
    for (const HistogramSample& cur : current.histograms) {
      while (p < previous_.histograms.size() &&
             previous_.histograms[p].name < cur.name) {
        ++p;
      }
      const HistogramSample* prev = nullptr;
      if (p < previous_.histograms.size() &&
          previous_.histograms[p].name == cur.name) {
        prev = &previous_.histograms[p];
      }
      std::vector<uint64_t> deltas = cur.buckets;
      uint64_t count = cur.count;
      double sum = cur.sum;
      if (prev != nullptr && prev->buckets.size() == deltas.size()) {
        for (size_t i = 0; i < deltas.size(); ++i) {
          deltas[i] -= std::min(prev->buckets[i], deltas[i]);
        }
        count -= std::min(prev->count, count);
        sum -= prev->sum;
      }
      if (count == 0) continue;
      HistogramWindow digest;
      digest.count = count;
      digest.sum = sum;
      digest.p50 = QuantileFromBuckets(cur.bounds, deltas, 0.50);
      digest.p99 = QuantileFromBuckets(cur.bounds, deltas, 0.99);
      window.histograms.emplace_back(cur.name, digest);
    }
  }

  windows_.push_back(std::move(window));
  while (windows_.size() > options_.max_windows) windows_.pop_front();
  ++windows_cut_;
  last_ms_ = now_ms;
  previous_ = std::move(current);
}

std::string TimeSeriesSampler::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .KV("period_ms", options_.period_ms)
      .KV("windows_cut", windows_cut_)
      .Key("windows")
      .BeginArray();
  for (const SampleWindow& window : windows_) {
    w.BeginObject()
        .KV("t0_ms", window.t0_ms)
        .KV("t1_ms", window.t1_ms)
        .Key("counters")
        .BeginObject();
    for (const auto& [name, delta] : window.counters) w.KV(name, delta);
    w.EndObject().Key("gauges").BeginObject();
    for (const auto& [name, value] : window.gauges) w.KV(name, value);
    w.EndObject().Key("histograms").BeginObject();
    for (const auto& [name, h] : window.histograms) {
      w.Key(name)
          .BeginObject()
          .KV("count", h.count)
          .KV("sum", h.sum)
          .KV("p50", h.p50)
          .KV("p99", h.p99)
          .EndObject();
    }
    w.EndObject().EndObject();
  }
  w.EndArray().EndObject();
  return w.TakeString();
}

#endif  // LBSAGG_OBS_DISABLED

}  // namespace introspect
}  // namespace obs
}  // namespace lbsagg
