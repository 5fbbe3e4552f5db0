#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::SampleVariance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StandardError() const {
  if (count_ == 0) return 0.0;
  return std::sqrt(SampleVariance() / static_cast<double>(count_));
}

double RunningStats::ConfidenceHalfWidth(double z) const {
  return z * StandardError();
}

std::string RunningStats::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .KV("count", static_cast<uint64_t>(count_))
      .KV("mean", mean_)
      .KV("stddev", std::sqrt(SampleVariance()))
      .KV("se", StandardError())
      .KV("ci95_half_width", ConfidenceHalfWidth())
      .KV("min", min_)
      .KV("max", max_)
      .EndObject();
  return w.TakeString();
}

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  LBSAGG_CHECK(!sorted.empty());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

Summary Summarize(std::vector<double> values) {
  Summary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  RunningStats acc;
  for (double v : values) acc.Add(v);
  s.count = values.size();
  s.mean = acc.mean();
  s.stddev = std::sqrt(acc.SampleVariance());
  s.min = values.front();
  s.p25 = Percentile(values, 0.25);
  s.median = Percentile(values, 0.50);
  s.p75 = Percentile(values, 0.75);
  s.p95 = Percentile(values, 0.95);
  s.max = values.back();
  return s;
}

double RelativeError(double estimate, double truth) {
  if (truth == 0.0) return std::abs(estimate);
  return std::abs(estimate - truth) / std::abs(truth);
}

ErrorDecomposition DecomposeError(const std::vector<double>& runs,
                                  double truth) {
  ErrorDecomposition d;
  if (runs.empty()) return d;
  RunningStats acc;
  double rel = 0.0;
  for (double r : runs) {
    acc.Add(r);
    rel += RelativeError(r, truth);
  }
  d.bias = acc.mean() - truth;
  d.variance = acc.SampleVariance();
  d.mse = d.bias * d.bias + d.variance;
  d.mean_rel_error = rel / static_cast<double>(runs.size());
  return d;
}

}  // namespace lbsagg
