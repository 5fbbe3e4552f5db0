#include "service/introspect.h"

#include <sstream>
#include <utility>

#include "obs/introspect/prometheus.h"
#include "util/check.h"

namespace lbsagg {
namespace service {

std::string SessionIntrospectionJson(const SessionIntrospection& row) {
  std::ostringstream os;
  os << "{\"id\":" << row.id << ",\"state\":\"" << SessionStateName(row.state)
     << "\",\"principal\":\"" << row.principal << "\",\"family\":\""
     << EstimatorFamilyName(row.family) << "\",\"budget\":" << row.budget
     << ",\"queries_used\":" << row.queries_used << ",\"rounds\":" << row.rounds
     << ",\"dedup_hits\":" << row.dedup_hits
     << ",\"submit_ms\":" << row.submit_ms
     << ",\"start_ms\":" << row.start_ms
     << ",\"end_ms\":" << row.end_ms;
  if (row.has_deadline) {
    os << ",\"deadline_ms\":" << row.deadline_ms
       << ",\"deadline_slack_ms\":" << row.deadline_slack_ms;
  }
  os << ",\"aggregates\":[";
  for (size_t i = 0; i < row.aggregates.size(); ++i) {
    const AggregateIntrospection& agg = row.aggregates[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"" << agg.name
       << "\",\"estimate\":" << agg.estimate
       << ",\"half_width\":" << agg.half_width
       << ",\"trajectory\":[";
    for (size_t j = 0; j < agg.trajectory.size(); ++j) {
      const engine::ConvergencePoint& p = agg.trajectory[j];
      if (j > 0) os << ",";
      os << "{\"queries\":" << p.queries
         << ",\"estimate\":" << p.estimate
         << ",\"half_width\":" << p.half_width << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

ServiceIntrospector::ServiceIntrospector(IntrospectorOptions options)
    : options_(std::move(options)) {
  LBSAGG_CHECK(options_.service != nullptr);
  if (options_.registry == nullptr) {
    options_.registry = &obs::MetricsRegistry::Default();
  }
}

obs::introspect::Statusz ServiceIntrospector::BuildStatusz() const {
  obs::introspect::Statusz status;
#ifndef LBSAGG_OBS_DISABLED
  const EstimationService& svc = *options_.service;
  status.SetMetaNum("now_ms", svc.NowMs());
  status.SetMetaNum("queued", static_cast<double>(svc.queued()));
  status.SetMetaNum("active", static_cast<double>(svc.active()));
  status.SetMetaNum("submitted", static_cast<double>(svc.submitted()));
  status.SetMetaNum("completed", static_cast<double>(svc.completed()));
  status.SetMetaNum("rejected", static_cast<double>(svc.rejected()));
  status.SetMetaNum("backends", static_cast<double>(svc.num_backends()));
  status.SetSnapshot(options_.registry->Snapshot());

  // Scheduler / admission / dedup view (the run-report "service" section).
  status.AddJsonSection("service", svc.diagnostics_json());

  // Per-session burn-down and convergence trajectories.
  {
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const SessionIntrospection& row : svc.IntrospectSessions()) {
      if (!first) os << ",";
      first = false;
      os << SessionIntrospectionJson(row);
    }
    os << "]";
    status.AddJsonSection("sessions", os.str());
  }

  if (options_.sharded != nullptr) {
    std::ostringstream os;
    os << "{\"num_shards\":" << options_.sharded->num_shards()
       << ",\"virtual_now_ms\":" << options_.sharded->VirtualNowMs()
       << ",\"aggregate\":" << options_.sharded->Metrics().ToJson()
       << ",\"lanes\":[";
    for (int shard = 0; shard < options_.sharded->num_shards(); ++shard) {
      if (shard > 0) os << ",";
      os << options_.sharded->ShardMetrics(shard).ToJson();
    }
    os << "]}";
    status.AddJsonSection("shards", os.str());
  }
  if (options_.sampler != nullptr) {
    status.AddJsonSection("timeseries", options_.sampler->ToJson());
  }
  if (options_.recorder != nullptr) {
    status.AddJsonSection("flight_recorder", options_.recorder->StatsJson());
  }
#endif  // LBSAGG_OBS_DISABLED
  return status;
}

std::string ServiceIntrospector::PrometheusText() const {
  return obs::introspect::ToPrometheusText(options_.registry->Snapshot());
}

}  // namespace service
}  // namespace lbsagg
