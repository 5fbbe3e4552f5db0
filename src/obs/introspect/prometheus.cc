#include "obs/introspect/prometheus.h"

#include <sstream>

#include "util/json_writer.h"

namespace lbsagg {
namespace obs {
namespace introspect {

namespace {

bool ValidChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

}  // namespace

std::string PrometheusName(const std::string& name, const std::string& prefix) {
  std::string out = prefix.empty() ? name : prefix + "_" + name;
  for (char& c : out) {
    if (!ValidChar(c)) c = '_';
  }
  // Metric names must not start with a digit.
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string ToPrometheusText(const MetricsSnapshot& snapshot,
                             const std::string& prefix) {
  std::ostringstream os;
  for (const CounterSample& c : snapshot.counters) {
    const std::string name = PrometheusName(c.name, prefix);
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c.value << "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    const std::string name = PrometheusName(g.name, prefix);
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << JsonWriter::Shortest(g.value) << "\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    const std::string name = PrometheusName(h.name, prefix);
    os << "# TYPE " << name << " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size() && i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      os << name << "_bucket{le=\"" << JsonWriter::Shortest(h.bounds[i])
         << "\"} " << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << name << "_sum " << JsonWriter::Shortest(h.sum) << "\n";
    os << name << "_count " << h.count << "\n";
  }
  return os.str();
}

}  // namespace introspect
}  // namespace obs
}  // namespace lbsagg
