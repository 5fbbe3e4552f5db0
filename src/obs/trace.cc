#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "util/json_writer.h"

namespace lbsagg {
namespace obs {

namespace {

// Small dense thread ids for the "tid" field: Chrome's format wants ints,
// and per-thread lanes are what make same-thread spans nest by containment.
int CurrentTid() {
  static std::atomic<int> next{1};
  thread_local int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(std::function<double()> clock_us)
    : clock_us_(clock_us ? std::move(clock_us) : SteadyNowUs) {}

double Tracer::NowUs() const { return clock_us_(); }

void Tracer::AddComplete(const std::string& name, const std::string& category,
                         double ts_us, double dur_us) {
  const int tid = CurrentTid();
  introspect::FlightRecorder* recorder;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({name, category, ts_us, dur_us, tid});
    recorder = recorder_;
  }
  if (recorder != nullptr) {
    introspect::FlightRecord record;
    record.kind = introspect::FlightRecord::Kind::kSpan;
    record.SetName(name.c_str());
    record.ts_us = ts_us;
    record.dur_us = dur_us;
    record.a = static_cast<uint64_t>(tid);
    recorder->TryPublish(record);
  }
}

void Tracer::SetFlightRecorder(introspect::FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorder_ = recorder;
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Steady-clock timestamps pass 10^9 µs after ~17 minutes of uptime, so
  // they print at full round-trip precision: spans 1 µs apart stay apart.
  // Names are escaped so a hostile one cannot corrupt the document.
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) out += ',';
    out += "\n{\"name\":\"";
    JsonWriter::AppendEscaped(&out, e.name);
    out += "\",\"cat\":\"";
    JsonWriter::AppendEscaped(&out, e.category);
    out += "\",\"ph\":\"X\",\"ts\":";
    out += JsonWriter::Shortest(e.ts_us);
    out += ",\"dur\":";
    out += JsonWriter::Shortest(e.dur_us);
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid) + "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace obs
}  // namespace lbsagg
