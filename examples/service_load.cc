// Estimation-as-a-service (DESIGN.md §4.12): one EstimationService hosting
// a mixed fleet of sessions from three tenants against a rate-limited
// simulated backend. Shows the whole service surface in one sitting:
//
//   * fair-share admission — tenant "free" queues ten sessions, tenants
//     "pro" and "team" one each; the principal ring interleaves them, so
//     nobody starves behind the burst;
//   * cross-session dedup — the free tier's sessions replay two distinct
//     query streams, so the backend answers each stream once while every
//     session is charged (and estimates) exactly as if it ran alone;
//   * lifecycle events — a trigger tallies per-tenant completions as they
//     happen;
//   * the observability plane:
//       --trace=out.json   Chrome trace_event JSON on the transport's
//                          virtual clock: one "service.session" span per
//                          session over the engine/client/transport spans.
//                          Open in Perfetto (ui.perfetto.dev).
//       --report=out.json  the merged RunReport with the service's
//                          diagnostics as a "service" section. Validated by
//                          tools/validate_report.py.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/runner.h"
#include "lbs/server.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "service/service.h"
#include "transport/sharded_transport.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/scenarios.h"

namespace {

bool WriteFileOrComplain(const std::string& path, const std::string& body,
                         const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  out << body << "\n";
  std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsagg;

  FlagParser flags;
  flags.AddString("trace", "",
                  "write the run's Chrome trace_event JSON here");
  flags.AddString("report", "", "write the merged RunReport JSON here");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 1;
  }
  const std::string trace_path = flags.GetString("trace");
  const std::string report_path = flags.GetString("report");

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();

  UsaOptions uopts;
  uopts.num_pois = 4000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  const double truth = static_cast<double>(usa.dataset->size());

  // The backend wire: 8 ms per query behind a token bucket — the service
  // quota every tenant shares. Virtual time; nothing sleeps.
  ShardedTransportOptions topts;
  topts.latency.fixed_ms = 8.0;
  topts.rate_limit = {.capacity = 16.0, .refill_per_sec = 100.0};
  topts.registry = &registry;
  ShardedTransport wire(&server, topts);

  // All spans share the wire's virtual clock, so session/engine/transport
  // timelines line up in Perfetto.
  obs::Tracer tracer([&wire] { return wire.VirtualNowMs() * 1000.0; });
  obs::Tracer* trace_sink = trace_path.empty() ? nullptr : &tracer;

  service::ServiceOptions options;
  options.admission.policy = service::AdmissionPolicy::kFairShare;
  options.admission.max_active = 4;
  options.slice_rounds = 4;
  options.dispatcher_workers = 4;
  options.clock_ms = [&wire] { return wire.VirtualNowMs(); };
  options.registry = &registry;
  options.tracer = trace_sink;
  service::EstimationService svc({{.meta = &server, .wire = &wire}}, options);

  // Per-tenant completion tally, fed by the event registry as sessions end.
  std::map<std::string, int> tenant_done;
  svc.triggers().Add(service::SessionEventKind::kFinished,
                     [&](const service::SessionEvent& e) {
                       ++tenant_done[e.principal];
                     });

  // The free tier bursts ten COUNT(*) sessions replaying two distinct
  // seeds; the paying tenants submit one session each.
  std::vector<service::SessionId> ids;
  for (int i = 0; i < 10; ++i) {
    service::SessionSpec spec;
    spec.principal = "free";
    spec.family = service::EstimatorFamily::kNno;
    spec.budget = 60;
    spec.seed = 100 + i % 2;
    ids.push_back(svc.Submit(spec));
  }
  for (const char* tenant : {"pro", "team"}) {
    service::SessionSpec spec;
    spec.principal = tenant;
    spec.family = service::EstimatorFamily::kNno;
    spec.budget = 120;
    spec.seed = 7;
    ids.push_back(svc.Submit(spec));
  }

  svc.RunUntilIdle();

  Table table({"session", "tenant", "state", "COUNT(*)", "queries",
               "dedup hits", "latency (virtual ms)"});
  for (size_t i = 0; i < ids.size(); ++i) {
    const service::SessionStatus done = svc.Poll(ids[i]);
    table.AddRow({Table::Int(static_cast<int>(i) + 1), done.principal,
                  service::SessionStateName(done.state),
                  done.results.empty()
                      ? "-"
                      : Table::Num(done.results[0].final_estimate, 0),
                  Table::Int(static_cast<long long>(done.queries_used)),
                  Table::Int(static_cast<long long>(done.dedup_hits)),
                  Table::Num(done.latency_ms, 0)});
  }

  std::printf("12 sessions, 3 tenants, fair-share admission over one "
              "rate-limited backend\n(truth: %.0f tuples):\n\n",
              truth);
  table.Print();

  std::printf("\nper-tenant completions:");
  for (const auto& [tenant, n] : tenant_done) {
    std::printf("  %s=%d", tenant.c_str(), n);
  }
  const service::DedupStats dedup = svc.dedup()->Stats();
  std::printf("\ndedup: %llu of %llu interface queries answered from the "
              "shared cache\n",
              static_cast<unsigned long long>(dedup.hits),
              static_cast<unsigned long long>(dedup.lookups));
  std::printf("simulated %.1f s of service time\n\n",
              svc.NowMs() / 1000.0);
  std::printf("service diagnostics:\n%s\n", svc.diagnostics_json().c_str());

  // One representative session's RunResult anchors the report; the service
  // section carries the fleet view.
  const service::SessionStatus first = svc.Poll(ids[0]);
  obs::RunReport report =
      BuildRunReport("service.nno", first.results[0], &registry);
  report.SetMeta("example", "service_load");
  report.SetMetaNum("sessions", static_cast<double>(ids.size()));
  report.SetMetaNum("virtual_time_ms", svc.NowMs());
  report.AddJsonSection("service", svc.diagnostics_json());

  int exit_code = 0;
  if (!trace_path.empty()) {
    if (!WriteFileOrComplain(trace_path, tracer.ToChromeTraceJson(), "trace"))
      exit_code = 1;
  }
  if (!report_path.empty()) {
    if (!WriteFileOrComplain(report_path, report.ToJson(), "run report"))
      exit_code = 1;
  }
  return exit_code;
}
