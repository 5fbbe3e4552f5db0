// Estimation-as-a-service under load: a virtual-time harness driving up to
// 10^6 simulated sessions through the EstimationService against one
// rate-limited backend, a one-shard ShardedTransport. Tracked in
// BENCH_service.json:
//
//   * session latency p50/p90/p99 on the transport's virtual clock — the
//     queueing story: every session is submitted at t=0, so the latency
//     distribution is dominated by time spent behind the token bucket and
//     the scheduler's round-robin;
//   * sessions/s wall throughput of the whole service loop (admission,
//     activation, slicing, dedup, teardown);
//   * queries saved by cross-session dedup. The fleet replays a bounded
//     pool of distinct query streams (seed = base + i % distinct), so the
//     backend answers each stream once while every session is still charged
//     (and estimates) exactly as if it ran alone. The same load runs twice,
//     dedup on and off: with dedup the backend sees only the distinct
//     streams and virtual time nearly stops advancing — the saved-query
//     fraction *is* the latency collapse.
//
// Memory stays flat at any fleet size: queued sessions are specs, the
// active set bounds live engines, and a kFinished trigger harvests each
// session's latency before Forget() drops its record.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "obs/introspect/flight_recorder.h"
#include "obs/introspect/sampler.h"
#include "obs/report.h"
#include "service/service.h"
#include "service/watchdog.h"
#include "transport/sharded_transport.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

namespace lbsagg {
namespace bench {
namespace {

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

struct LoadConfig {
  size_t sessions = 0;
  size_t distinct = 64;
  uint64_t budget = 24;
  int k = 5;
  size_t max_active = 64;
  size_t slice_rounds = 4;
  unsigned workers = 4;
  bool dedup = true;
};

struct LoadResult {
  uint64_t completed = 0;
  double submit_ms = 0;
  double wall_ms = 0;
  double sessions_per_sec = 0;
  double virtual_ms = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  RunningStats latency_stats;
  RunningStats query_stats;
  service::DedupStats dedup;
  std::string diagnostics;
  // Introspection plane (live for the whole run; see DESIGN.md §4.13).
  std::string timeseries;     // sampler's "timeseries" section
  std::string introspection;  // recorder tallies + watchdog verdicts
  uint64_t windows_cut = 0;
  uint64_t recorder_published = 0;
  uint64_t recorder_dropped = 0;
};

LoadResult RunLoad(const LbsServer& server, const LoadConfig& cfg) {
  // The backend wire: fixed-latency, token-bucket rate limited — the §2.1
  // service quota made explicit. Virtual time, so the harness never sleeps.
  ShardedTransportOptions topts;
  topts.latency.fixed_ms = 5.0;
  topts.rate_limit = {.capacity = 32.0, .refill_per_sec = 200.0};
  ShardedTransport wire(&server, topts);

  service::ServiceOptions options;
  options.admission.queue_capacity = cfg.sessions + 1;
  options.admission.max_active = cfg.max_active;
  options.slice_rounds = cfg.slice_rounds;
  options.dispatcher_workers = cfg.workers;
  options.dedup = cfg.dedup;
  options.clock_ms = [&wire] { return wire.VirtualNowMs(); };
  // The introspection plane rides the whole load: every session lifecycle
  // event streams through the flight recorder (drained live, mid-run), the
  // sampler cuts metric windows on the virtual clock, and the SLO watchdog
  // scans the active set — all without perturbing the estimates.
  obs::introspect::FlightRecorder recorder(8192);
  options.recorder = &recorder;
  service::EstimationService svc({{.meta = &server, .wire = &wire}}, options);
  obs::introspect::TimeSeriesSampler sampler(
      {.clock_ms = [&wire] { return wire.VirtualNowMs(); },
       .period_ms = 250.0});
  service::SloWatchdog watchdog(&svc);

  // Harvest-and-forget: latencies recorded the moment a session ends, the
  // record dropped on the next driver iteration so memory stays O(active).
  LoadResult result;
  std::vector<double> latencies;
  latencies.reserve(cfg.sessions);
  std::vector<service::SessionId> done_ids;
  svc.triggers().Add(service::SessionEventKind::kFinished,
                     [&](const service::SessionEvent& e) {
                       const service::SessionStatus s = svc.Poll(e.id);
                       latencies.push_back(s.latency_ms);
                       result.latency_stats.Add(s.latency_ms);
                       result.query_stats.Add(
                           static_cast<double>(s.queries_used));
                       done_ids.push_back(e.id);
                     });

  const double submit0 = WallMs();
  for (size_t i = 0; i < cfg.sessions; ++i) {
    service::SessionSpec spec;
    spec.family = service::EstimatorFamily::kNno;
    spec.k = cfg.k;
    spec.budget = cfg.budget;
    spec.seed = 1000 + i % cfg.distinct;
    (void)svc.Submit(spec);
  }
  result.submit_ms = WallMs() - submit0;

  const double run0 = WallMs();
  std::vector<obs::introspect::FlightRecord> drained;
  uint64_t slices = 0;
  while (svc.RunSlice()) {
    for (const service::SessionId id : done_ids) (void)svc.Forget(id);
    done_ids.clear();
    sampler.MaybeTick();
    // The watchdog scan copies trajectories; amortize it, and drain the
    // recorder live so the drained window keeps moving while workers run.
    if ((++slices & 255) == 0) {
      watchdog.Check();
      drained.clear();
      recorder.Drain(&drained);
    }
  }
  result.wall_ms = WallMs() - run0;
  for (const service::SessionId id : done_ids) (void)svc.Forget(id);
  sampler.Tick();  // cut the final partial window

  std::sort(latencies.begin(), latencies.end());
  result.completed = svc.completed();
  result.sessions_per_sec =
      1000.0 * static_cast<double>(svc.completed()) / result.wall_ms;
  result.virtual_ms = svc.NowMs();
  result.p50 = Percentile(latencies, 0.50);
  result.p90 = Percentile(latencies, 0.90);
  result.p99 = Percentile(latencies, 0.99);
  if (svc.dedup() != nullptr) result.dedup = svc.dedup()->Stats();
  result.diagnostics = svc.diagnostics_json();
  result.timeseries = sampler.ToJson();
  result.windows_cut = sampler.windows_cut();
  result.recorder_published = recorder.published();
  result.recorder_dropped = recorder.dropped();
  result.introspection =
      "{\"flight_recorder\": " + recorder.StatsJson() +
      ", \"watchdog\": {\"stalled_fired\": " +
      std::to_string(watchdog.stalled_fired()) +
      ", \"deadline_fired\": " + std::to_string(watchdog.deadline_fired()) +
      "}}";
  return result;
}

std::string Json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string LoadJson(const LoadResult& r) {
  std::string json = "{";
  json += "\"completed\": " + std::to_string(r.completed);
  json += ", \"submit_ms\": " + Json(r.submit_ms);
  json += ", \"wall_ms\": " + Json(r.wall_ms);
  json += ", \"sessions_per_sec\": " + Json(r.sessions_per_sec);
  json += ", \"virtual_ms\": " + Json(r.virtual_ms);
  json += ", \"latency_p50_ms\": " + Json(r.p50);
  json += ", \"latency_p90_ms\": " + Json(r.p90);
  json += ", \"latency_p99_ms\": " + Json(r.p99);
  json += "}";
  return json;
}

void PrintLoad(const char* title, const LoadResult& r) {
  std::printf("\n== %s ==\n", title);
  Table table({"metric", "value"});
  table.AddRow({"sessions completed",
                Table::Int(static_cast<long long>(r.completed))});
  table.AddRow({"wall run s", Table::Num(r.wall_ms / 1000.0, 2)});
  table.AddRow({"sessions/s", Table::Num(r.sessions_per_sec, 0)});
  table.AddRow({"virtual time s", Table::Num(r.virtual_ms / 1000.0, 1)});
  table.AddRow({"latency p50 (virtual ms)", Table::Num(r.p50, 1)});
  table.AddRow({"latency p90 (virtual ms)", Table::Num(r.p90, 1)});
  table.AddRow({"latency p99 (virtual ms)", Table::Num(r.p99, 1)});
  table.AddRow({"mean queries/session", Table::Num(r.query_stats.mean(), 2)});
  table.AddRow({"recorder events",
                Table::Int(static_cast<long long>(r.recorder_published))});
  table.AddRow({"recorder drops",
                Table::Int(static_cast<long long>(r.recorder_dropped))});
  table.AddRow({"sampler windows",
                Table::Int(static_cast<long long>(r.windows_cut))});
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace lbsagg

int main(int argc, char** argv) {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  FlagParser flags;
  flags.AddInt("sessions", 1000000, "sessions in the dedup-on run");
  flags.AddInt("ablation-sessions", 100000,
               "sessions in the dedup-off ablation (0 = skip; every one of "
               "its interface queries hits the rate-limited backend, so it "
               "is run at a smaller scale)");
  flags.AddInt("distinct-streams", 64,
               "distinct session seeds (the dedup sharing factor)");
  flags.AddInt("budget", 24, "per-session interface-query budget");
  flags.AddInt("k", 5, "results per interface query");
  flags.AddInt("pois", 4000, "backend dataset size");
  flags.AddInt("max-active", 64, "admission: concurrently active sessions");
  flags.AddInt("slice-rounds", 4, "engine rounds per scheduler slice");
  flags.AddInt("workers", 4, "dispatcher workers per backend");
  flags.AddString("json", "", "write the curated JSON document here");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 1;
  }

  LoadConfig cfg;
  cfg.sessions = static_cast<size_t>(flags.GetInt("sessions"));
  cfg.distinct = static_cast<size_t>(flags.GetInt("distinct-streams"));
  cfg.budget = static_cast<uint64_t>(flags.GetInt("budget"));
  cfg.k = static_cast<int>(flags.GetInt("k"));
  cfg.max_active = static_cast<size_t>(flags.GetInt("max-active"));
  cfg.slice_rounds = static_cast<size_t>(flags.GetInt("slice-rounds"));
  cfg.workers = static_cast<unsigned>(flags.GetInt("workers"));
  const size_t ablation_sessions =
      std::min(static_cast<size_t>(flags.GetInt("ablation-sessions")),
               cfg.sessions);
  const int pois = static_cast<int>(flags.GetInt("pois"));

  UsaOptions uopts;
  uopts.num_pois = pois;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = cfg.k});

  std::printf("driving %zu sessions (%zu distinct streams, budget %llu, "
              "%zu active, %u workers)\n",
              cfg.sessions, cfg.distinct,
              static_cast<unsigned long long>(cfg.budget), cfg.max_active,
              cfg.workers);

  const LoadResult with_dedup = RunLoad(server, cfg);
  PrintLoad("dedup on", with_dedup);

  const double saved_fraction =
      with_dedup.dedup.lookups > 0
          ? static_cast<double>(with_dedup.dedup.hits) /
                static_cast<double>(with_dedup.dedup.lookups)
          : 0.0;
  std::printf("\ndedup: %llu interface queries, %llu reached the backend, "
              "%llu saved (%.2f%%)\n",
              static_cast<unsigned long long>(with_dedup.dedup.lookups),
              static_cast<unsigned long long>(with_dedup.dedup.lookups -
                                              with_dedup.dedup.hits),
              static_cast<unsigned long long>(with_dedup.dedup.hits),
              100.0 * saved_fraction);

  LoadResult no_dedup;
  if (ablation_sessions > 0) {
    LoadConfig ablation = cfg;
    ablation.sessions = ablation_sessions;
    ablation.dedup = false;
    no_dedup = RunLoad(server, ablation);
    PrintLoad("dedup off (ablation)", no_dedup);
  }

  std::string json = "{\n \"config\": {";
  json += "\"sessions\": " + std::to_string(cfg.sessions);
  json += ", \"ablation_sessions\": " + std::to_string(ablation_sessions);
  json += ", \"distinct_streams\": " + std::to_string(cfg.distinct);
  json += ", \"budget\": " + std::to_string(cfg.budget);
  json += ", \"k\": " + std::to_string(cfg.k);
  json += ", \"pois\": " + std::to_string(pois);
  json += ", \"max_active\": " + std::to_string(cfg.max_active);
  json += ", \"slice_rounds\": " + std::to_string(cfg.slice_rounds);
  json += ", \"workers\": " + std::to_string(cfg.workers);
  json += "},\n \"load.dedup=on\": " + LoadJson(with_dedup);
  if (ablation_sessions > 0) {
    json += ",\n \"load.dedup=off\": " + LoadJson(no_dedup);
  }
  json += ",\n \"dedup\": {";
  json += "\"interface_queries\": " + std::to_string(with_dedup.dedup.lookups);
  json += ", \"backend_queries\": " +
          std::to_string(with_dedup.dedup.lookups - with_dedup.dedup.hits);
  // Every hit is one query the backend never saw; the key keeps its name
  // so BENCH_service.json stays comparable.
  json += ", \"saved_queries\": " + std::to_string(with_dedup.dedup.hits);
  {
    // %.3f would round 0.99994 to an untrue-looking 1.000.
    char frac[32];
    std::snprintf(frac, sizeof frac, "%.6f", saved_fraction);
    json += ", \"saved_fraction\": ";
    json += frac;
  }
  json += "}\n}\n";

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Env-gated run report (DESIGN.md §4.8), "service" section included.
  if (const char* path = std::getenv("LBSAGG_RUN_REPORT");
      path != nullptr && path[0] != '\0') {
    obs::RunReport report;
    report.SetMeta("bench", "fig19_service");
    report.SetMetaNum("sessions", static_cast<double>(cfg.sessions));
    report.SetMetaNum("virtual_time_ms", with_dedup.virtual_ms);
    report.AddStats("session.latency_ms", with_dedup.latency_stats);
    report.AddStats("session.queries", with_dedup.query_stats);
    report.SetSnapshot(obs::MetricsRegistry::Default().Snapshot());
    report.AddJsonSection("service", with_dedup.diagnostics);
    report.AddJsonSection("timeseries", with_dedup.timeseries);
    report.AddJsonSection("introspection", with_dedup.introspection);
    std::ofstream out(path);
    if (out) {
      out << report.ToJson() << "\n";
      std::fprintf(stderr, "run report written to %s\n", path);
    } else {
      std::fprintf(stderr, "cannot write run report to %s\n", path);
    }
  }
  return 0;
}
