// Estimating COUNT(restaurants) through a *flaky* service: the same
// LR-LBS-NNO baseline, but every query crosses a simulated wire (a
// one-shard ShardedTransport) with lognormal latency, a token-bucket rate
// limit, transient errors, timeouts, truncated result pages, and a
// capped-backoff retry policy. Independent Monte-Carlo probes are
// pipelined through an AsyncDispatcher worker pool — with no effect on the
// result: outcomes are deterministic for a fixed seed regardless of worker
// count (see DESIGN.md "Transport & fault model").
//
// Prints the clean-wire baseline next to the flaky run, then the metrics of
// the wire's one lane as JSON. This is also the reference wiring of the
// observability plane (DESIGN.md §4.8):
//
//   --trace=out.json   write the flaky run's span tree (estimator rounds,
//                      cell computations, client queries, transport
//                      requests/attempts) as Chrome trace_event JSON on the
//                      transport's virtual-time axis; open it in Perfetto
//                      (ui.perfetto.dev) or chrome://tracing.
//   --report=out.json  write the merged RunReport: run meta + RunningStats,
//                      every layer's counters/gauges/histograms, and the
//                      lane's TransportMetrics JSON as a "transport"
//                      section. Validated by tools/validate_report.py.

#include <cstdio>
#include <fstream>

#include "core/aggregate.h"
#include "core/runner.h"
#include "engine/engine.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "transport/async_dispatcher.h"
#include "transport/metrics.h"
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
                  "write the flaky run's Chrome trace_event JSON here");
  flags.AddString("report", "", "write the merged RunReport JSON here");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 1;
  }
  const std::string trace_path = flags.GetString("trace");
  const std::string report_path = flags.GetString("report");

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();

  UsaOptions options;
  options.num_pois = 8000;
  const UsaScenario usa = BuildUsaScenario(options);
  // Opt the kd-tree into the metric plane so the report covers the spatial
  // layer too (spatial.kdtree.* is opt-in, see ServerOptions).
  LbsServer server(usa.dataset.get(),
                   {.max_k = 10, .stats_registry = &registry});

  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa.columns.category, "restaurant"), "COUNT(restaurants)");
  const double truth = usa.dataset->GroundTruthCount([&](const Tuple& t) {
    return std::get<std::string>(t.values[usa.columns.category]) ==
           "restaurant";
  });

  constexpr uint64_t kBudget = 6000;
  Table table({"wire", "estimate", "truth", "rel.err", "attempts", "rounds"});

  // --- Baseline: ideal in-process wire.
  {
    LrClient client(&server, {.k = 5, .budget = kBudget});
    engine::NnoProbeResolver resolver(&client, {.seed = 7});
    engine::EstimationEngine eng(&resolver);
    eng.AddAggregate(spec);
    RunEngine(&eng, {.budget = kBudget});
    const RunResult run = EngineResults(eng)[0];
    table.AddRow({"direct", Table::Num(run.final_estimate, 0),
                  Table::Num(truth, 0),
                  Table::Num(100.0 * RelativeError(run.final_estimate, truth),
                             1) + "%",
                  Table::Int(static_cast<long long>(run.queries)),
                  Table::Int(static_cast<long long>(run.trace.size()))});
  }

  // --- Flaky wire: lossy, rate-limited, retrying.
  ShardedTransportOptions topts;
  topts.latency.kind = LatencyOptions::Kind::kLognormal;
  topts.latency.lognormal_median_ms = 80.0;
  topts.rate_limit = {.capacity = 20.0, .refill_per_sec = 5.0};
  topts.faults.transient_error_rate = 0.08;
  topts.faults.timeout_rate = 0.02;
  topts.faults.truncate_rate = 0.05;
  topts.retry.max_attempts = 4;
  topts.seed = 0xf1a;

  // All spans share the transport's deterministic virtual clock, so the
  // estimator/client/transport timelines line up in Perfetto. The transport
  // is constructed after the tracer (its options carry the tracer pointer),
  // hence the indirection through a late-bound pointer.
  ShardedTransport* transport_ptr = nullptr;
  obs::Tracer tracer([&transport_ptr] {
    return transport_ptr == nullptr ? 0.0
                                    : transport_ptr->VirtualNowMs() * 1000.0;
  });
  obs::Tracer* trace_sink = trace_path.empty() ? nullptr : &tracer;
  topts.tracer = trace_sink;

  ShardedTransport transport(&server, topts);
  transport_ptr = &transport;
  AsyncDispatcher dispatcher(&transport, {.num_workers = 4});
  LrClient client(&server,
                  {.k = 5, .budget = kBudget, .tracer = trace_sink},
                  &transport, &dispatcher);
  engine::NnoProbeResolver resolver(&client,
                                   {.seed = 7, .tracer = trace_sink});
  engine::EstimationEngine eng(&resolver, {.tracer = trace_sink});
  eng.AddAggregate(spec);
  RunEngine(&eng, {.budget = kBudget});
  const RunResult run = EngineResults(eng)[0];
  table.AddRow({"flaky", Table::Num(run.final_estimate, 0),
                Table::Num(truth, 0),
                Table::Num(100.0 * RelativeError(run.final_estimate, truth),
                           1) + "%",
                Table::Int(static_cast<long long>(run.queries)),
                Table::Int(static_cast<long long>(run.trace.size()))});

  std::printf("COUNT(restaurants) via the LBS-NNO baseline (biased by "
              "design — the paper's\nstrawman), budget %llu interface "
              "attempts. The flaky wire retries transient\nfailures, so the "
              "same budget buys fewer sampling rounds:\n\n",
              static_cast<unsigned long long>(kBudget));
  table.Print();

  // The per-attempt accounting (faults, throttling) lives on the lane.
  const TransportMetrics metrics = transport.ShardMetrics(0);
  std::printf("\nSimulated %.1f s of service time at 4 dispatcher workers "
              "(deterministic for\nany worker count under a fixed seed).\n",
              transport.VirtualNowMs() / 1000.0);
  std::printf("\nTransport metrics:\n%s\n", metrics.ToJson(2).c_str());

  // The one-artifact view of the flaky run: the transport's latency
  // histogram is already on the metric plane, its accounting rides along
  // as the "transport" section.
  obs::RunReport report = BuildRunReport("nno", run, &registry);
  report.SetMeta("example", "flaky_service");
  report.SetMetaNum("budget", static_cast<double>(kBudget));
  report.SetMetaNum("truth", truth);
  report.SetMetaNum("virtual_time_ms", transport.VirtualNowMs());
  report.AddJsonSection("transport", metrics.ToJson(2));

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
