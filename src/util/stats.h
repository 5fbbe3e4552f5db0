#ifndef LBSAGG_UTIL_STATS_H_
#define LBSAGG_UTIL_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace lbsagg {

// Numerically stable running mean/variance accumulator (Welford).
//
// Used by the estimators to aggregate per-sample Horvitz–Thompson values and
// report the running estimate plus a confidence interval based on the sample
// variance with Bessel's correction (§2.3 of the paper).
class RunningStats {
 public:
  RunningStats() = default;

  // Adds one observation.
  void Add(double x);

  // Merges another accumulator into this one (parallel Welford merge).
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return mean_; }

  // Sample variance with Bessel's correction; 0 when count < 2.
  double SampleVariance() const;

  // Standard error of the mean: sqrt(sample variance / n).
  double StandardError() const;

  // Half-width of a normal-approximation confidence interval around the
  // mean, e.g. z = 1.96 for 95%.
  double ConfidenceHalfWidth(double z = 1.96) const;

  double min() const { return min_; }
  double max() const { return max_; }

  // One-line JSON object: `{"count":..,"mean":..,"stddev":..,"se":..,
  // "ci95_half_width":..,"min":..,"max":..}`. Consumed by obs::RunReport;
  // values print through JsonWriter::Shortest (shortest round-trip form).
  std::string ToJson() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Descriptive statistics of a fixed sample. Percentile uses linear
// interpolation between order statistics.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev (Bessel)
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

// Computes the summary of `values` (which it copies and sorts).
Summary Summarize(std::vector<double> values);

// Relative error |estimate - truth| / |truth|. Returns |estimate| when truth
// is zero and estimate is not (an infinite relative error capped for
// reporting would be meaningless; callers avoid zero ground truths).
double RelativeError(double estimate, double truth);

// Mean squared error decomposition helper: MSE = bias^2 + variance. `runs`
// holds one final estimate per independent run.
struct ErrorDecomposition {
  double bias = 0.0;       // mean(runs) - truth
  double variance = 0.0;   // sample variance of runs
  double mse = 0.0;        // bias^2 + variance
  double mean_rel_error = 0.0;  // mean over runs of |run - truth| / truth
};
ErrorDecomposition DecomposeError(const std::vector<double>& runs,
                                  double truth);

}  // namespace lbsagg

#endif  // LBSAGG_UTIL_STATS_H_
