#include "service/introspect.h"

#include <sstream>
#include <utility>

#include "obs/introspect/prometheus.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace service {

std::string SessionIntrospectionJson(const SessionIntrospection& row) {
  JsonWriter w;
  w.BeginObject()
      .KV("id", row.id)
      .KV("state", SessionStateName(row.state))
      .KV("principal", row.principal)
      .KV("family", EstimatorFamilyName(row.family))
      .KV("budget", row.budget)
      .KV("queries_used", row.queries_used)
      .KV("rounds", row.rounds)
      .KV("dedup_hits", row.dedup_hits)
      .KV("submit_ms", row.submit_ms)
      .KV("start_ms", row.start_ms)
      .KV("end_ms", row.end_ms);
  if (row.has_deadline) {
    w.KV("deadline_ms", row.deadline_ms)
        .KV("deadline_slack_ms", row.deadline_slack_ms);
  }
  w.Key("aggregates").BeginArray();
  for (const AggregateIntrospection& agg : row.aggregates) {
    w.BeginObject()
        .KV("name", agg.name)
        .KV("estimate", agg.estimate)
        .KV("half_width", agg.half_width)
        .Key("trajectory")
        .BeginArray();
    for (const engine::ConvergencePoint& p : agg.trajectory) {
      w.BeginObject()
          .KV("queries", p.queries)
          .KV("estimate", p.estimate)
          .KV("half_width", p.half_width)
          .EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return w.TakeString();
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
