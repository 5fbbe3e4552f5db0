#include "transport/metrics.h"

#include <sstream>

#include "util/json_writer.h"

namespace lbsagg {

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
  os << in << "\"throttle_wait_ms\": "
     << JsonWriter::Shortest(throttle_wait_ms) << ",\n";
  os << in << "\"latency_ms\": " << JsonWriter::Shortest(latency_ms)
     << ",\n";
  os << in << "\"attempts_per_request\": [";
  for (size_t i = 0; i < attempts_histogram.size(); ++i) {
    if (i > 0) os << ',';
    os << attempts_histogram[i];
  }
  os << "]\n";
  os << pad << "}";
  return os.str();
}

}  // namespace lbsagg
