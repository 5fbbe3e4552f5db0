#ifndef LBSAGG_OBS_REPORT_H_
#define LBSAGG_OBS_REPORT_H_

// RunReport: the one JSON report document. It merges everything the layers
// observed — estimator RunningStats (mean/CI), the metric plane's counters,
// gauges and histograms (client queries, kd-tree visits, HT weight
// histogram, ...), and raw JSON sections from subsystems with their own
// serialization (TransportMetrics, the service's diagnostics). Emitted by
// core/runner's BuildRunReport, every bench/fig* target
// (LBSAGG_RUN_REPORT=path), examples/flaky_service --report, and as statusz
// (ServiceIntrospector::BuildStatusz, lbsagg_cli --statusz). Every double
// prints at shortest round-trip precision (JsonWriter::Shortest). Validated
// against tools/report_schema.json by tools/validate_report.py.

#include <map>
#include <string>

#include "obs/metrics.h"
#include "util/stats.h"

namespace lbsagg {
namespace obs {

class RunReport {
 public:
  static constexpr int kSchemaVersion = 1;

  // String / numeric key-value metadata ("estimator": "lr", "budget": 4000).
  void SetMeta(const std::string& key, const std::string& value);
  void SetMetaNum(const std::string& key, double value);

  // Named RunningStats block (serialized via RunningStats::ToJson).
  void AddStats(const std::string& name, const RunningStats& stats);

  // The metric plane at end of run. Replaces any previous snapshot.
  void SetSnapshot(MetricsSnapshot snapshot);
  const MetricsSnapshot& snapshot() const { return snapshot_; }

  // Attaches a pre-serialized JSON value under sections.<name>; this is how
  // TransportMetrics rides along without obs depending on transport.
  void AddJsonSection(const std::string& name, const std::string& raw_json);

  std::string ToJson(int indent = 0) const;

 private:
  std::map<std::string, std::string> meta_;
  std::map<std::string, double> meta_num_;
  std::map<std::string, RunningStats> stats_;
  MetricsSnapshot snapshot_;
  std::map<std::string, std::string> sections_;
};

}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_REPORT_H_
