#ifndef LBSAGG_OBS_TRACE_H_
#define LBSAGG_OBS_TRACE_H_

// Span tracing serialized as Chrome trace_event JSON ("ph":"X" complete
// events), loadable in Perfetto / chrome://tracing. Spans nest by time
// containment per thread, which is exactly what the estimator call tree
// produces: estimator round → cell computation → kNN query → transport
// attempt (DESIGN.md §4.8 span taxonomy).
//
// The clock is pluggable: SteadyTraceClock for wall time, or a
// FunctionTraceClock bound to ShardedTransport::VirtualNowMs so the trace
// timeline is the transport's deterministic *virtual* service time. The
// transport additionally emits its request, lane and attempt spans with
// explicit virtual timestamps (AddComplete), because it knows both
// endpoints exactly.
//
// Long-lived spans (a hosted session's lifetime) use the open/close API:
// OpenSpan hands back a ticket, CloseSpan emits the complete event,
// CloseSpanTruncated emits it with a ".truncated" category suffix (the
// span's owner died — Cancel, deadline, teardown — but the evidence that it
// ran must survive), DropSpan discards it (the span never really started,
// e.g. a rejected admission). FlushOpenSpans truncate-closes everything
// still open so a trace file never silently loses in-flight work
// (DESIGN.md §4.13).
//
// A Tracer can additionally mirror every completed span into a flight
// recorder (SetFlightRecorder) for live drains; the recorder copy is a
// fixed-size POD publish and never blocks.
//
// Tracing is opt-in per component: a null Tracer* means no spans, and
// ScopedSpan on a null tracer is two predictable branches. Under
// LBSAGG_OBS_DISABLED ScopedSpan compiles out entirely.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/introspect/flight_recorder.h"

namespace lbsagg {
namespace obs {

class TraceClock {
 public:
  virtual ~TraceClock() = default;
  // Microseconds since an arbitrary fixed origin.
  virtual double NowUs() const = 0;
};

// Wall time from std::chrono::steady_clock.
class SteadyTraceClock final : public TraceClock {
 public:
  double NowUs() const override;
};

// Adapts any time source, e.g. [&t] { return t.VirtualNowMs() * 1000.0; }.
class FunctionTraceClock final : public TraceClock {
 public:
  explicit FunctionTraceClock(std::function<double()> now_us)
      : now_us_(std::move(now_us)) {}
  double NowUs() const override { return now_us_(); }

 private:
  std::function<double()> now_us_;
};

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
  // `clock == nullptr` uses an internal steady clock. The clock must
  // outlive the tracer.
  explicit Tracer(const TraceClock* clock = nullptr);

  double NowUs() const { return clock_->NowUs(); }

  // Appends one complete event with explicit timestamps (used by the
  // transport, whose virtual-time endpoints are known exactly).
  void AddComplete(const std::string& name, const std::string& category,
                   double ts_us, double dur_us);

  // Registers a long-lived span starting at `ts_us` and returns its ticket
  // (never 0). The span is emitted only when one of the Close*/Flush calls
  // below resolves the ticket.
  uint64_t OpenSpan(const std::string& name, const std::string& category,
                    double ts_us);
  // Resolves an open ticket into a normal complete event ending at
  // `end_ts_us`. Returns false for an unknown/already-resolved ticket.
  bool CloseSpan(uint64_t ticket, double end_ts_us);
  // Resolves an open ticket into a complete event whose category carries a
  // ".truncated" suffix: the span's owner stopped before a natural close
  // (Cancel, deadline exceeded, process teardown).
  bool CloseSpanTruncated(uint64_t ticket, double end_ts_us);
  // Discards an open ticket without emitting anything (the span turned out
  // not to represent real work, e.g. a rejected admission).
  bool DropSpan(uint64_t ticket);
  // Truncate-closes every open span at `end_ts_us`; returns how many.
  size_t FlushOpenSpans(double end_ts_us);
  size_t open_span_count() const;

  // Mirrors every subsequently completed span into `recorder` (null
  // detaches). The recorder must outlive the tracer or be detached first.
  void SetFlightRecorder(introspect::FlightRecorder* recorder);

  size_t event_count() const;

  // `{"traceEvents":[...],"displayTimeUnit":"ms"}` — the Chrome trace_event
  // array format Perfetto and about:tracing load directly.
  std::string ToChromeTraceJson() const;

 private:
  struct OpenSpanRecord {
    std::string name;
    std::string category;
    double ts_us = 0.0;
  };

  bool ResolveSpan(uint64_t ticket, double end_ts_us, bool truncated);

  SteadyTraceClock default_clock_;
  const TraceClock* clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<uint64_t, OpenSpanRecord> open_spans_;
  uint64_t next_ticket_ = 1;
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
