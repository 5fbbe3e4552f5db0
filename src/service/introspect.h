#ifndef LBSAGG_SERVICE_INTROSPECT_H_
#define LBSAGG_SERVICE_INTROSPECT_H_

// Service-side statusz assembly (DESIGN.md §4.13): the glue that turns one
// EstimationService (plus whatever else the host wires in — a sharded
// wire's per-lane metrics, a time-series sampler, a flight recorder) into
// the one-call introspection snapshot. Statusz is a run report
// (obs::RunReport) taken mid-flight: the generic pieces live in obs/ and
// know nothing about the service; this header is where the layering
// inverts, exactly like TransportMetrics riding RunReport's AddJsonSection.
//
//   ServiceIntrospector intro({.service = &svc, .sharded = &wire,
//                              .sampler = &sampler, .recorder = &recorder});
//   std::cout << intro.BuildStatusz().ToJson();      // machine snapshot
//   std::cout << intro.PrometheusText();             // scrape page
//
// Everything here is pure observation: building a snapshot perturbs no
// schedule, estimate, or metric. Under -DLBSAGG_OBS_DISABLED BuildStatusz
// returns an empty report and the scrape page is empty, so --statusz flags
// keep writing valid JSON from a disabled build.

#include <string>

#include "obs/introspect/flight_recorder.h"
#include "obs/introspect/sampler.h"
#include "obs/report.h"
#include "service/service.h"
#include "transport/sharded_transport.h"

namespace lbsagg {
namespace service {

// JSON for one session snapshot, one aggregate per result:
// {"id":..,"state":"..","principal":"..","family":"..","budget":..,
//  "queries_used":..,"rounds":..,"dedup_hits":..,"submit_ms":..,
//  "start_ms":..,"end_ms":..,"deadline_ms":..,"deadline_slack_ms":..,
//  "aggregates":[{"name":"..","estimate":..,"half_width":..,
//                 "trajectory":[{"queries":..,"estimate":..,
//                                "half_width":..},...]},...]}
// The deadline keys appear only when the session has a deadline. An
// aggregate's estimate is its result's final_estimate, its half_width the
// last trace point's (0 before the first round), and its trajectory the
// trace.
std::string SessionStatusJson(const SessionStatus& row);

struct IntrospectorOptions {
  // Required; must outlive the introspector.
  EstimationService* service = nullptr;
  // Optional per-shard lane health ("shards" section).
  const ShardedTransport* sharded = nullptr;
  // Optional sliding-window series ("timeseries" section).
  const obs::introspect::TimeSeriesSampler* sampler = nullptr;
  // Optional recorder tallies ("flight_recorder" section).
  const obs::introspect::FlightRecorder* recorder = nullptr;
  // Metric plane to snapshot; null = MetricsRegistry::Default(). Use the
  // same registry the service was built with.
  obs::MetricsRegistry* registry = nullptr;
};

class ServiceIntrospector {
 public:
  explicit ServiceIntrospector(IntrospectorOptions options);

  // One full statusz: meta (the service clock `now_ms` and `backends`), the
  // metrics snapshot, and sections "service" (diagnostics: queue depths and
  // session tallies), "sessions" (IntrospectSessions() rows), plus "shards" /
  // "timeseries" / "flight_recorder" when wired.
  obs::RunReport BuildStatusz() const;

  // The Prometheus text-format page over the same registry.
  std::string PrometheusText() const;

 private:
  IntrospectorOptions options_;
};

}  // namespace service
}  // namespace lbsagg

#endif  // LBSAGG_SERVICE_INTROSPECT_H_
