#include "probes.h"

#include <algorithm>
#include <chrono>

namespace e2e {

using lbsagg::obs::introspect::FlightRecord;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Attribute(std::vector<Interval> intervals,
               std::map<std::string, LayerTotals>* totals) {
  // Parents first: earlier start, and on a tie the longer interval.
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.end_us > b.end_us;
            });
  struct Open {
    LayerTotals* totals;
    double end_us;
  };
  std::vector<Open> stack;
  for (const Interval& iv : intervals) {
    LayerTotals& mine = (*totals)[iv.name];
    const double dur = iv.end_us - iv.start_us;
    ++mine.count;
    mine.inclusive_us += dur;
    while (!stack.empty() && stack.back().end_us <= iv.start_us) {
      stack.pop_back();
    }
    if (iv.name == "lbs.server") {
      for (Open& open : stack) ++open.totals->server_calls_below;
    }
    if (!stack.empty()) {
      // Clamp to the parent: a child that outlives its parent would be a
      // clock artifact, never real nesting.
      stack.back().totals->self_us -=
          std::min(iv.end_us, stack.back().end_us) - iv.start_us;
    }
    mine.self_us += dur;
    stack.push_back({&mine, iv.end_us});
  }
}

SpanTap::SpanTap(size_t capacity) : recorder_(capacity) {
  tracer_.SetFlightRecorder(&recorder_);
}

SpanTap::~SpanTap() { tracer_.SetFlightRecorder(nullptr); }

void SpanTap::Drain(std::vector<Interval>* out) {
  scratch_.clear();
  recorder_.Drain(&scratch_);
  for (const FlightRecord& r : scratch_) {
    if (r.kind != FlightRecord::Kind::kSpan) continue;
    const std::string_view name = r.name;
    if (name == "engine.evidence.round" || name.starts_with("service.") ||
        name.starts_with("transport.")) {
      continue;
    }
    out->push_back({r.name, r.ts_us, r.ts_us + r.dur_us});
  }
}

lbsagg::TransportReply ProbeTransport::Fulfill(
    const lbsagg::TransportPlan& plan, const lbsagg::Vec2& q, int k,
    const lbsagg::TupleFilter& filter) const {
  const double start = log_ != nullptr ? NowUs() : 0.0;
  lbsagg::TransportReply reply = inner_->Fulfill(plan, q, k, filter);
  if (log_ != nullptr) log_->Add("lbs.server", start, NowUs());
  if (!lbsagg::Delivered(reply.outcome)) ++undelivered_;
  return reply;
}

lbsagg::Vec2 ProbeSampler::Sample(lbsagg::Rng& rng) const {
  const double start = NowUs();
  const lbsagg::Vec2 p = inner_->Sample(rng);
  log_->Add("core.sampler", start, NowUs());
  return p;
}

double ProbeSampler::RegionProbability(
    const lbsagg::TopkRegion& region) const {
  const double start = NowUs();
  const double p = inner_->RegionProbability(region);
  log_->Add("core.sampler", start, NowUs());
  return p;
}

double ProbeSampler::RegionProbability(
    const lbsagg::ConvexPolygon& polygon) const {
  const double start = NowUs();
  const double p = inner_->RegionProbability(polygon);
  log_->Add("core.sampler", start, NowUs());
  return p;
}

lbsagg::Vec2 ProbeSampler::SampleFromRegion(const lbsagg::TopkRegion& region,
                                            lbsagg::Rng& rng) const {
  const double start = NowUs();
  const lbsagg::Vec2 p = inner_->SampleFromRegion(region, rng);
  log_->Add("core.sampler", start, NowUs());
  return p;
}

void ProbeResolver::ResolveRound(const lbsagg::engine::EvidenceDemand& demand,
                                 lbsagg::engine::EvidenceStore* store) {
  const double start = NowUs();
  inner_->ResolveRound(demand, store);
  log_->Add("engine.resolve", start, NowUs());
}

void ProbeSink::OnBeginRound(uint64_t round, const lbsagg::Vec2& sample_point) {
  const double start = NowUs();
  inner_->OnBeginRound(round, sample_point);
  log_->Add("engine.log.append", start, NowUs());
}

void ProbeSink::OnAppend(uint64_t round,
                         const lbsagg::engine::Observation& observation) {
  const double start = NowUs();
  inner_->OnAppend(round, observation);
  log_->Add("engine.log.append", start, NowUs());
}

void ProbeSink::OnEndRound(const lbsagg::engine::EvidenceRound& round) {
  const double start = NowUs();
  inner_->OnEndRound(round);
  log_->Add("engine.log.append", start, NowUs());
}

}  // namespace e2e
