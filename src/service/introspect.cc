#include "service/introspect.h"

#include <sstream>
#include <utility>

#include "obs/introspect/prometheus.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace service {

std::string SessionStatusJson(const SessionStatus& row) {
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
  if (row.deadline_ms > 0) {
    w.KV("deadline_ms", row.deadline_ms)
        .KV("deadline_slack_ms", row.deadline_slack_ms);
  }
  w.Key("aggregates").BeginArray();
  for (const RunResult& result : row.results) {
    w.BeginObject()
        .KV("name", result.name)
        .KV("estimate", result.final_estimate)
        .KV("half_width",
            result.trace.empty() ? 0.0 : result.trace.back().half_width)
        .Key("trajectory")
        .BeginArray();
    for (const TracePoint& p : result.trace) {
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

obs::RunReport ServiceIntrospector::BuildStatusz() const {
  obs::RunReport status;
#ifndef LBSAGG_OBS_DISABLED
  const EstimationService& svc = *options_.service;
  status.SetMetaNum("now_ms", svc.NowMs());
  status.SetMetaNum("backends", static_cast<double>(svc.num_backends()));
  status.SetSnapshot(options_.registry->Snapshot());

  // Scheduler depths, session tallies, admission and dedup.
  status.AddJsonSection("service", svc.diagnostics_json());

  // Per-session burn-down and convergence trajectories.
  {
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const SessionStatus& row : svc.IntrospectSessions()) {
      if (!first) os << ",";
      first = false;
      os << SessionStatusJson(row);
    }
    os << "]";
    status.AddJsonSection("sessions", os.str());
  }

  if (options_.sharded != nullptr) {
    std::ostringstream os;
    os << "{\"num_shards\":" << options_.sharded->num_shards()
       << ",\"virtual_now_ms\":"
       << JsonWriter::Shortest(options_.sharded->VirtualNowMs())
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
