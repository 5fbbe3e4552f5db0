#ifndef LBSAGG_E2EBENCH_PROBES_H_
#define LBSAGG_E2EBENCH_PROBES_H_

// Benchmark-side instrumentation. Every probe here sits at a public seam of
// the library — an LbsTransport, a QuerySampler, a CellResolver, an
// EvidenceSink — and forwards every call unchanged, so a probed run is
// bit-identical to an unprobed one. Untraced runs keep only the counting
// transport; traced runs additionally time each call on the same steady
// clock the library's obs::Tracer uses, so probe intervals and the
// library's own spans (drained from a FlightRecorder) nest into one tree.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sampler.h"
#include "engine/cell_resolver.h"
#include "engine/evidence_store.h"
#include "obs/introspect/flight_recorder.h"
#include "obs/trace.h"
#include "transport/transport.h"

namespace e2e {

// Microseconds on std::chrono::steady_clock — the obs::SteadyTraceClock
// timeline, as a full-precision double.
double NowUs();

// One timed interval.
struct Interval {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

// Where traced intervals go; one per run. Runs are single-threaded (the
// fleet's dispatcher runs inline), so every interval nests in one tree.
class IntervalLog {
 public:
  void Add(std::string_view name, double start_us, double end_us) {
    items_.push_back({std::string(name), start_us, end_us});
  }
  // Moves out everything logged since the last call.
  std::vector<Interval> Take() { return std::exchange(items_, {}); }

 private:
  std::vector<Interval> items_;
};

// Per-name totals folded from many step trees.
struct LayerTotals {
  uint64_t count = 0;
  double inclusive_us = 0.0;
  double self_us = 0.0;
  // lbs.server calls that ran inside this interval's subtree (only kept for
  // estimator.cell, which is what queries_per_cell needs).
  uint64_t server_calls_below = 0;
};

// Folds one step's intervals into per-name totals. Intervals nest by time
// containment; an interval's self time is its duration minus the part its
// children cover.
void Attribute(std::vector<Interval> intervals,
               std::map<std::string, LayerTotals>* totals);

// The library's spans, captured live: a Tracer on the steady clock mirrors
// every completed span into a FlightRecorder, and Drain() converts what was
// published since the last call into Intervals (ts and dur are kept as the
// doubles the tracer recorded). The tracer's own event list grows with the
// run, so build one SpanTap per estimation run.
class SpanTap {
 public:
  explicit SpanTap(size_t capacity = 1u << 16);
  ~SpanTap();
  SpanTap(const SpanTap&) = delete;
  SpanTap& operator=(const SpanTap&) = delete;

  lbsagg::obs::Tracer* tracer() { return &tracer_; }
  // Appends drained spans to `out`. Skipped: `engine.evidence.round` (a
  // BeginRound..EndRound bookkeeping span that overlaps the resolver's
  // children without containing them cleanly), and `service.*` /
  // `transport.*` spans, which are stamped on the service's and the
  // simulated wire's own clocks, not the steady clock.
  void Drain(std::vector<Interval>* out);
  uint64_t dropped() const { return recorder_.dropped(); }

 private:
  lbsagg::obs::introspect::FlightRecorder recorder_;
  lbsagg::obs::Tracer tracer_;
  std::vector<lbsagg::obs::introspect::FlightRecord> scratch_;
};

// LbsTransport decorator around the backend wire. Always counts undelivered
// queries; with a log attached it also times Fulfill (the backend's kNN
// work) as "lbs.server".
class ProbeTransport final : public lbsagg::LbsTransport {
 public:
  explicit ProbeTransport(lbsagg::LbsTransport* inner) : inner_(inner) {}

  void set_log(IntervalLog* log) { log_ = log; }

  lbsagg::TransportPlan Prepare(const lbsagg::Vec2& q, int k) override {
    return inner_->Prepare(q, k);
  }
  lbsagg::TransportReply Fulfill(const lbsagg::TransportPlan& plan,
                                 const lbsagg::Vec2& q, int k,
                                 const lbsagg::TupleFilter& filter)
      const override;

  uint64_t undelivered() const { return undelivered_; }

 private:
  lbsagg::LbsTransport* inner_;
  IntervalLog* log_ = nullptr;
  mutable uint64_t undelivered_ = 0;
};

// QuerySampler decorator: times Sample / RegionProbability /
// SampleFromRegion as "core.sampler".
class ProbeSampler final : public lbsagg::QuerySampler {
 public:
  ProbeSampler(const lbsagg::QuerySampler* inner, IntervalLog* log)
      : inner_(inner), log_(log) {}

  lbsagg::Vec2 Sample(lbsagg::Rng& rng) const override;
  double RegionProbability(const lbsagg::TopkRegion& region) const override;
  double RegionProbability(
      const lbsagg::ConvexPolygon& polygon) const override;
  lbsagg::Vec2 SampleFromRegion(const lbsagg::TopkRegion& region,
                                lbsagg::Rng& rng) const override;
  const lbsagg::Box& box() const override { return inner_->box(); }

 private:
  const lbsagg::QuerySampler* inner_;
  IntervalLog* log_;
};

// CellResolver decorator: times ResolveRound as "engine.resolve".
class ProbeResolver final : public lbsagg::engine::CellResolver {
 public:
  ProbeResolver(lbsagg::engine::CellResolver* inner, IntervalLog* log)
      : inner_(inner), log_(log) {}

  void ResolveRound(const lbsagg::engine::EvidenceDemand& demand,
                    lbsagg::engine::EvidenceStore* store) override;
  const lbsagg::LbsClient& client() const override { return inner_->client(); }
  uint64_t queries_used() const override { return inner_->queries_used(); }
  const char* name() const override { return inner_->name(); }
  std::string diagnostics_json() const override {
    return inner_->diagnostics_json();
  }
  void SaveState(std::string* out) const override { inner_->SaveState(out); }
  bool RestoreState(std::string_view blob) override {
    return inner_->RestoreState(blob);
  }

 private:
  lbsagg::engine::CellResolver* inner_;
  IntervalLog* log_;
};

// EvidenceSink decorator in front of a DurableEvidenceLog: times every
// protocol callback (the WAL append path) as "engine.log.append".
class ProbeSink final : public lbsagg::engine::EvidenceSink {
 public:
  ProbeSink(lbsagg::engine::EvidenceSink* inner, IntervalLog* log)
      : inner_(inner), log_(log) {}

  void OnBeginRound(uint64_t round, const lbsagg::Vec2& sample_point) override;
  void OnAppend(uint64_t round,
                const lbsagg::engine::Observation& observation) override;
  void OnEndRound(const lbsagg::engine::EvidenceRound& round) override;

 private:
  lbsagg::engine::EvidenceSink* inner_;
  IntervalLog* log_;
};

}  // namespace e2e

#endif  // LBSAGG_E2EBENCH_PROBES_H_
