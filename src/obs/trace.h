#ifndef LBSAGG_OBS_TRACE_H_
#define LBSAGG_OBS_TRACE_H_

// Span tracing serialized as Chrome trace_event JSON ("ph":"X" complete
// events), loadable in Perfetto / chrome://tracing. Spans nest by time
// containment per thread, which is exactly what the estimator call tree
// produces: estimator round → cell computation → kNN query → transport
// attempt (DESIGN.md §4.8 span taxonomy).
//
// The clock is pluggable: by default the steady clock (wall time), or any
// function returning microseconds, e.g. one bound to
// ShardedTransport::VirtualNowMs so the trace timeline is the transport's
// deterministic *virtual* service time. The transport additionally emits
// its request, lane and attempt spans with explicit virtual timestamps
// (AddComplete), because it knows both endpoints exactly; so does the
// service for each hosted session's lifetime span (DESIGN.md §4.13).
//
// A Tracer can additionally mirror every completed span into a flight
// recorder (SetFlightRecorder) for live drains; the recorder copy is a
// fixed-size POD publish and never blocks.
//
// Tracing is opt-in per component: a null Tracer* means no spans, and
// ScopedSpan on a null tracer is two predictable branches. Under
// LBSAGG_OBS_DISABLED ScopedSpan compiles out entirely.

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/introspect/flight_recorder.h"

namespace lbsagg {
namespace obs {

struct TraceEvent {
  std::string name;
  std::string category;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

// Collects complete events; thread-safe (dispatcher workers emit transport
// spans concurrently with the main thread's estimator spans).
class Tracer {
 public:
  // `clock_us` returns microseconds since an arbitrary fixed origin, e.g.
  // [&t] { return t.VirtualNowMs() * 1000.0; }; empty = the steady clock.
  explicit Tracer(std::function<double()> clock_us = {});

  // Out of line: ScopedSpan inlines into hot loops, and the std::function
  // call inlined at every span site weighed on them with tracing off.
  double NowUs() const;

  // Appends one complete event with explicit timestamps (used by the
  // transport and the service, which know both endpoints exactly).
  void AddComplete(const std::string& name, const std::string& category,
                   double ts_us, double dur_us);

  // Mirrors every subsequently completed span into `recorder` (null
  // detaches). The recorder must outlive the tracer or be detached first.
  void SetFlightRecorder(introspect::FlightRecorder* recorder);

  size_t event_count() const;

  // `{"traceEvents":[...],"displayTimeUnit":"ms"}` — the Chrome trace_event
  // array format Perfetto and about:tracing load directly.
  std::string ToChromeTraceJson() const;

 private:
  std::function<double()> clock_us_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  introspect::FlightRecorder* recorder_ = nullptr;
};

// RAII span: records the clock at construction, appends one complete event
// at destruction. A null tracer makes both ends no-ops.
class ScopedSpan {
 public:
#ifndef LBSAGG_OBS_DISABLED
  ScopedSpan(Tracer* tracer, const char* name, const char* category = "lbsagg")
      : tracer_(tracer), name_(name), category_(category) {
    if (tracer_ != nullptr) start_us_ = tracer_->NowUs();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->AddComplete(name_, category_, start_us_,
                           tracer_->NowUs() - start_us_);
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
#else
  ScopedSpan(Tracer*, const char*, const char* = "lbsagg") {}
#endif

 public:
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

}  // namespace obs
}  // namespace lbsagg

#endif  // LBSAGG_OBS_TRACE_H_
