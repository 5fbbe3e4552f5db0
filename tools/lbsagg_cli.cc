// lbsagg_cli — run the paper's estimators against a simulated LBS from the
// command line.
//
// Examples (each is one command line, wrapped here):
//   lbsagg_cli --dataset=usa --n=20000 --algorithm=lr --aggregate=count
//              --where=category=school --budget=10000 --runs=5
//   lbsagg_cli --dataset=points.csv --algorithm=lnr --aggregate=avg
//              --column=rating --budget=20000
//   lbsagg_cli --dataset=usa --n=5000 --export=usa.csv

#include <csignal>
#include <cstdio>
#include <sstream>
#include <memory>
#include <optional>
#include <string>

#include "core/aggregate.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "engine/log/durable_log.h"
#include "engine/lr_resolver.h"
#include "engine/nno_resolver.h"
#include "core/localize.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "lbs/client.h"
#include "lbs/dataset_io.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "obs/introspect/flight_recorder.h"
#include "obs/introspect/sampler.h"
#include "obs/metrics.h"
#include "service/introspect.h"
#include "service/service.h"
#include "service/watchdog.h"
#include "transport/sharded_transport.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace {

struct CliWorld {
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<CensusGrid> census;
};

std::optional<CliWorld> BuildWorld(const FlagParser& flags) {
  const std::string source = flags.GetString("dataset");
  CliWorld world;
  if (source == "usa") {
    UsaOptions options;
    options.num_pois = static_cast<int>(flags.GetInt("n"));
    options.seed = static_cast<uint64_t>(flags.GetInt("scenario-seed"));
    UsaScenario usa = BuildUsaScenario(options);
    world.dataset = std::move(usa.dataset);
    world.census = std::make_unique<CensusGrid>(std::move(usa.census));
  } else if (source == "china") {
    ChinaOptions options;
    options.num_users = static_cast<int>(flags.GetInt("n"));
    options.seed = static_cast<uint64_t>(flags.GetInt("scenario-seed"));
    ChinaScenario china = BuildChinaScenario(options);
    world.dataset = std::move(china.dataset);
    world.census = std::make_unique<CensusGrid>(std::move(china.census));
  } else {
    std::string error;
    std::optional<Dataset> loaded = LoadDatasetCsv(source, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return std::nullopt;
    }
    world.dataset = std::make_unique<Dataset>(std::move(*loaded));
    Rng census_rng(1);
    world.census = std::make_unique<CensusGrid>(CensusGrid::FromPoints(
        world.dataset->box(), 40, 25, world.dataset->Positions(), 0.3,
        census_rng));
  }
  return world;
}

// Parses --where into a returned-tuple predicate + matching ground-truth
// filter. Supported: "col=value" (string equality) and "col" (bool true).
struct WhereClause {
  ReturnedTuplePredicate predicate;  // null = no condition
  TupleFilter filter;                // ground-truth twin
};

std::optional<WhereClause> ParseWhere(const Schema& schema,
                                      const std::string& where) {
  WhereClause clause;
  if (where.empty()) return clause;
  const size_t eq = where.find('=');
  const std::string column = where.substr(0, eq == std::string::npos
                                                 ? where.size()
                                                 : eq);
  const std::optional<int> col = schema.Find(column);
  if (!col.has_value()) {
    std::fprintf(stderr, "error: --where column '%s' not in dataset\n",
                 column.c_str());
    return std::nullopt;
  }
  if (eq == std::string::npos) {
    if (schema.type(*col) != AttrType::kBool) {
      std::fprintf(stderr, "error: --where=%s needs =value (not a bool)\n",
                   column.c_str());
      return std::nullopt;
    }
    clause.predicate = ColumnIsTrue(*col);
    const int c = *col;
    clause.filter = [c](const Tuple& t) { return std::get<bool>(t.values[c]); };
    return clause;
  }
  const std::string value = where.substr(eq + 1);
  if (schema.type(*col) != AttrType::kString) {
    std::fprintf(stderr, "error: --where equality needs a string column\n");
    return std::nullopt;
  }
  clause.predicate = ColumnEquals(*col, value);
  const int c = *col;
  clause.filter = [c, value](const Tuple& t) {
    return std::get<std::string>(t.values[c]) == value;
  };
  return clause;
}

// Writes `text` to `path`; "-" means stdout.
bool DumpText(const std::string& path, const std::string& text,
              const char* what) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s to %s\n", what, path.c_str());
  return true;
}

// --localize=N: pick N random tuples of an LNR view of the dataset and
// recover their positions from ranked ids alone (§4.3).
int RunLocalize(const FlagParser& flags, Dataset& dataset) {
  const int targets = static_cast<int>(flags.GetInt("localize"));
  LbsServer server(&dataset, {.max_k = 1});
  LnrClient client(&server, {.k = 1});
  Localizer localizer(&client);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));

  Table table({"tuple", "true position", "inferred position", "error",
               "queries"});
  std::vector<double> errors;
  int attempts = 0;
  while (static_cast<int>(errors.size()) < targets && attempts < 20 * targets) {
    ++attempts;
    const Vec2 q = dataset.box().SamplePoint(rng);
    const int id = client.Top1(q);
    if (id < 0) continue;
    const uint64_t before = client.queries_used();
    const std::optional<Vec2> pos = localizer.Locate(id, q);
    if (!pos.has_value()) continue;
    const Vec2 truth = dataset.tuple(id).pos;
    const double err = Distance(*pos, truth);
    errors.push_back(err);
    std::ostringstream t_os, p_os;
    t_os.precision(4);
    p_os.precision(4);
    t_os << truth;
    p_os << *pos;
    table.AddRow({Table::Int(id), t_os.str(), p_os.str(),
                  Table::Num(err, 5),
                  Table::Int(static_cast<long long>(client.queries_used() -
                                                    before))});
  }
  std::printf("Localization over a rank-only view of the dataset (§4.3):\n\n");
  table.Print();
  const Summary s = Summarize(errors);
  std::printf("\nlocated %zu tuples — median error %.5f, p95 %.5f\n", s.count,
              s.median, s.p95);
  return 0;
}

// The --algorithm family, parsed once; nullopt (after an error) when
// unknown.
std::optional<service::EstimatorFamily> ParseFamily(
    const std::string& algorithm) {
  for (const service::EstimatorFamily family :
       {service::EstimatorFamily::kLr, service::EstimatorFamily::kLnr,
        service::EstimatorFamily::kNno}) {
    if (algorithm == service::EstimatorFamilyName(family)) return family;
  }
  std::fprintf(stderr, "error: unknown --algorithm=%s\n", algorithm.c_str());
  return std::nullopt;
}

// The client and resolver of one run — the CLI's one switch on the family.
struct EstimatorStack {
  std::unique_ptr<LbsClient> client;
  std::unique_ptr<engine::CellResolver> resolver;
  const LrAggDiagnostics* lr_diagnostics = nullptr;    // lr only
  const LnrAggDiagnostics* lnr_diagnostics = nullptr;  // lnr only
};

EstimatorStack BuildStack(service::EstimatorFamily family, LbsServer& server,
                          ShardedTransport* transport,
                          const QuerySampler* sampler, int k, uint64_t budget,
                          uint64_t seed) {
  EstimatorStack stack;
  switch (family) {
    case service::EstimatorFamily::kLr: {
      auto client = std::make_unique<LrClient>(
          &server, ClientOptions{.k = k, .budget = budget}, transport);
      LrAggOptions opts;
      opts.seed = seed;
      auto resolver =
          std::make_unique<engine::LrCellResolver>(client.get(), sampler, opts);
      stack.lr_diagnostics = &resolver->diagnostics();
      stack.resolver = std::move(resolver);
      stack.client = std::move(client);
      break;
    }
    case service::EstimatorFamily::kLnr: {
      auto client = std::make_unique<LnrClient>(
          &server, ClientOptions{.k = k, .budget = budget}, transport);
      LnrAggOptions opts;
      opts.seed = seed;
      opts.cell.search.delta_fraction = 1e-6;
      opts.cell.search.delta_prime_fraction = 1e-4;
      auto resolver = std::make_unique<engine::LnrCellResolver>(
          client.get(), sampler, opts);
      stack.lnr_diagnostics = &resolver->diagnostics();
      stack.resolver = std::move(resolver);
      stack.client = std::move(client);
      break;
    }
    case service::EstimatorFamily::kNno: {
      auto client = std::make_unique<LrClient>(
          &server, ClientOptions{.k = k, .budget = budget}, transport);
      NnoOptions opts;
      opts.seed = seed;
      stack.resolver =
          std::make_unique<engine::NnoProbeResolver>(client.get(), opts);
      stack.client = std::move(client);
      break;
    }
  }
  return stack;
}

// What one run leaves for the report.
struct RunOutcome {
  double estimate = 0.0;
  uint64_t queries = 0;
  size_t rounds = 0;          // committed rounds, restored ones included
  size_t resumed_rounds = 0;  // rounds recovered by --resume
  uint64_t fingerprint = 0;   // engine::TraceFingerprint of the trace
  engine::WalWriterStats wal;
  uint64_t checkpoints = 0;
};

// The CLI's one run function: the family's stack, an engine folding `spec`,
// and the run loop to the budget (or --target-ci). --wal-dir only attaches
// the durable log (DESIGN.md §4.14): --resume recovers the directory first
// and continues bit-identically, --kill-after-rounds caps the loop and then
// SIGKILLs the process (the two-process crash harness), and the --fail-*
// flags drive the WAL's deterministic failure injection. Returns nullopt
// after printing an error.
std::optional<RunOutcome> RunEstimator(const FlagParser& flags,
                                       service::EstimatorFamily family,
                                       const AggregateSpec& spec,
                                       LbsServer& server,
                                       ShardedTransport* transport,
                                       const QuerySampler* sampler,
                                       uint64_t seed, int run) {
  const uint64_t budget = static_cast<uint64_t>(flags.GetInt("budget"));
  EstimatorStack stack =
      BuildStack(family, server, transport, sampler,
                 static_cast<int>(flags.GetInt("k")), budget, seed);
  engine::EstimationEngine eng(stack.resolver.get());
  const engine::AggregateQuery* query = eng.AddAggregate(spec);
  StopRule rule{.budget = budget, .target_ci = flags.GetDouble("target-ci")};

  RunOutcome outcome;
  const std::string wal_dir = flags.GetString("wal-dir");
  std::unique_ptr<engine::DurableEvidenceLog> wal;
  if (!wal_dir.empty()) {
    if (flags.GetBool("resume")) {
      engine::RecoveredRun rec = engine::RecoverDurableRun(wal_dir);
      std::string error = rec.error;
      if (error.empty()) {
        eng.RestoreEvidence(rec.evidence);
        error = engine::ApplyCheckpoint(rec, &eng, stack.client.get());
      }
      if (!error.empty()) {
        std::fprintf(stderr, "error: resume failed: %s\n", error.c_str());
        return std::nullopt;
      }
      outcome.resumed_rounds = eng.evidence().num_rounds();
      std::printf("resumed %s at round %zu (truncated %llu torn bytes, "
                  "re-executing %llu rounds)\n",
                  wal_dir.c_str(), outcome.resumed_rounds,
                  static_cast<unsigned long long>(rec.torn_bytes),
                  static_cast<unsigned long long>(rec.discarded_rounds));
    }
    engine::DurableLogOptions log_options;
    log_options.dir = wal_dir;
    log_options.checkpoint_every_rounds =
        static_cast<uint64_t>(flags.GetInt("checkpoint-every"));
    log_options.failpoint.drop_after_bytes =
        static_cast<uint64_t>(flags.GetInt("fail-after-bytes"));
    log_options.failpoint.fail_fsync_at =
        static_cast<uint64_t>(flags.GetInt("fail-fsync-at"));
    wal = std::make_unique<engine::DurableEvidenceLog>(log_options, &eng,
                                                       stack.client.get());
    if (!wal->ok()) {
      std::fprintf(stderr, "error: durable log failed: %s\n",
                   wal->error().c_str());
      return std::nullopt;
    }
  }

  const long long kill_after = wal != nullptr
                                   ? flags.GetInt("kill-after-rounds")
                                   : 0;
  if (kill_after > 0) rule.max_rounds = static_cast<size_t>(kill_after);
  const size_t ran = RunEngine(&eng, rule, wal.get());
  if (kill_after > 0 && ran == rule.max_rounds) {
    // Crash harness: die the hard way — no Close, no final checkpoint, no
    // destructors. Whatever the fsync policy persisted is what recovery
    // gets.
    std::printf("killing process after %zu rounds\n", ran);
    std::fflush(stdout);
    std::raise(SIGKILL);
  }
  if (wal != nullptr) {
    wal->Close();
    outcome.wal = wal->wal_stats();
    outcome.checkpoints = wal->checkpoints_written();
  }

  if (flags.GetBool("verbose") && stack.lr_diagnostics != nullptr) {
    const LrAggDiagnostics& d = *stack.lr_diagnostics;
    std::printf("  run %d: %zu rounds, %zu exact cells, %zu MC cells, "
                "%llu cell queries\n",
                run + 1, d.rounds, d.cells_exact, d.cells_monte_carlo,
                static_cast<unsigned long long>(d.cell_queries));
  }
  if (flags.GetBool("verbose") && stack.lnr_diagnostics != nullptr) {
    const LnrAggDiagnostics& d = *stack.lnr_diagnostics;
    std::printf("  run %d: %zu rounds, %zu cells inferred, %zu cache hits\n",
                run + 1, d.rounds, d.cells_inferred, d.cache_hits);
  }
  outcome.estimate = query->Estimate();
  outcome.queries = eng.queries_used();
  outcome.rounds = eng.evidence().num_rounds();
  outcome.fingerprint = engine::TraceFingerprint(query->trace());
  return outcome;
}

int Run(const FlagParser& flags) {
  std::optional<CliWorld> world = BuildWorld(flags);
  if (!world.has_value()) return 1;
  Dataset& dataset = *world->dataset;

  if (flags.GetInt("localize") > 0) return RunLocalize(flags, dataset);

  const std::string export_path = flags.GetString("export");
  if (!export_path.empty()) {
    if (!SaveDatasetCsv(dataset, export_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", export_path.c_str());
      return 1;
    }
    std::printf("wrote %zu tuples to %s\n", dataset.size(),
                export_path.c_str());
    return 0;
  }

  const std::optional<WhereClause> where =
      ParseWhere(dataset.schema(), flags.GetString("where"));
  if (!where.has_value()) return 1;

  // Aggregate spec + ground truth.
  const std::string aggregate = flags.GetString("aggregate");
  const std::string column = flags.GetString("column");
  AggregateSpec spec;
  double truth = 0.0;
  if (aggregate == "count") {
    spec = where->predicate
               ? AggregateSpec::CountWhere(where->predicate, "COUNT")
               : AggregateSpec::Count();
    truth = dataset.GroundTruthCount(where->filter);
  } else if (aggregate == "sum" || aggregate == "avg") {
    const std::optional<int> col = dataset.schema().Find(column);
    if (!col.has_value() ||
        dataset.schema().type(*col) != AttrType::kDouble) {
      std::fprintf(stderr, "error: --aggregate=%s needs --column=<double>\n",
                   aggregate.c_str());
      return 1;
    }
    const int c = *col;
    const auto value_of = [c](const Tuple& t) {
      return std::get<double>(t.values[c]);
    };
    if (aggregate == "sum") {
      spec = where->predicate
                 ? AggregateSpec::SumWhere(*col, where->predicate, "SUM")
                 : AggregateSpec::Sum(*col, "SUM");
      truth = dataset.GroundTruthSum(where->filter, value_of);
    } else {
      spec = where->predicate
                 ? AggregateSpec::AvgWhere(*col, where->predicate, "AVG")
                 : AggregateSpec::Avg(*col, "AVG");
      const double count = dataset.GroundTruthCount(where->filter);
      truth = count > 0 ? dataset.GroundTruthSum(where->filter, value_of) /
                              count
                        : 0.0;
    }
  } else {
    std::fprintf(stderr, "error: unknown --aggregate=%s\n", aggregate.c_str());
    return 1;
  }

  // §2.3's rule compares the first aggregate's half-width with its
  // estimate; an AVG's half-width is its numerator's, on the SUM scale.
  const double target_ci = flags.GetDouble("target-ci");
  if (target_ci > 0 && spec.kind == AggregateSpec::Kind::kAvg) {
    std::fprintf(stderr,
                 "error: --target-ci needs --aggregate=count or sum (an AVG's "
                 "confidence half-width is its numerator's)\n");
    return 1;
  }

  const int k = static_cast<int>(flags.GetInt("k"));
  const int shards = static_cast<int>(flags.GetInt("shards"));
  const std::string algorithm = flags.GetString("algorithm");
  const std::optional<service::EstimatorFamily> family =
      ParseFamily(algorithm);
  if (!family.has_value()) return 1;
  // With --shards every query scatters to the per-shard indexes through
  // the sharded wire (DESIGN.md §4.11).
  ShardedLbsServer server(
      &dataset, {.num_shards = std::max(shards, 1),
                 .server = {.max_k = std::max(k, 1)}});
  // One metric plane for the sharded wire and, with --sessions, the
  // service and its introspection plane.
  obs::MetricsRegistry registry;
  std::unique_ptr<ShardedTransport> transport;
  if (shards > 1) {
    ShardedTransportOptions topts;
    topts.registry = &registry;
    transport = std::make_unique<ShardedTransport>(&server, topts);
  }
  std::unique_ptr<QuerySampler> sampler;
  if (flags.GetString("sampler") == "uniform") {
    sampler = std::make_unique<UniformSampler>(dataset.box());
  } else {
    sampler = std::make_unique<CensusSampler>(world->census.get());
  }

  const uint64_t budget = static_cast<uint64_t>(flags.GetInt("budget"));
  const int runs = static_cast<int>(flags.GetInt("runs"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  // --wal-dir: durable single-run path (WAL + checkpoints + resume).
  const std::string wal_dir = flags.GetString("wal-dir");
  if (flags.GetBool("resume") && wal_dir.empty()) {
    std::fprintf(stderr, "error: --resume needs --wal-dir\n");
    return 1;
  }
  if (!wal_dir.empty()) {
    const std::optional<RunOutcome> run =
        RunEstimator(flags, *family, spec, server, transport.get(),
                     sampler.get(), seed, 0);
    if (!run.has_value()) return 1;
    std::printf("%s over %s, durable %s run, k=%d, budget %llu, wal %s\n",
                spec.name.c_str(), flags.GetString("dataset").c_str(),
                algorithm.c_str(), k, static_cast<unsigned long long>(budget),
                wal_dir.c_str());
    std::printf("final estimate   : %.17g\n", run->estimate);
    std::printf("ground truth     : %.2f (simulator-only knowledge)\n", truth);
    std::printf("queries          : %llu\n",
                static_cast<unsigned long long>(run->queries));
    std::printf("rounds           : %zu (%zu new this process)\n", run->rounds,
                run->rounds - run->resumed_rounds);
    std::printf("trace fingerprint: %016llx\n",
                static_cast<unsigned long long>(run->fingerprint));
    std::printf("wal              : %llu records, %llu bytes, %llu fsyncs, "
                "%llu rotations, %llu checkpoints\n",
                static_cast<unsigned long long>(run->wal.records),
                static_cast<unsigned long long>(run->wal.bytes),
                static_cast<unsigned long long>(run->wal.fsyncs),
                static_cast<unsigned long long>(run->wal.rotations),
                static_cast<unsigned long long>(run->checkpoints));
    return 0;
  }

  // --sessions: the same estimator fleet, but hosted — every run becomes a
  // session of one EstimationService (DESIGN.md §4.12), time-sliced against
  // its siblings behind a shared cross-session dedup wire. Estimates are
  // bit-identical to the sequential path; the service additionally reports
  // the interface queries dedup kept off the backend.
  const int sessions = static_cast<int>(flags.GetInt("sessions"));
  if (sessions > 0) {
    if (target_ci > 0) {
      std::fprintf(stderr,
                   "error: --target-ci does not apply to --sessions (the "
                   "service stops a session at its budget)\n");
      return 1;
    }

    // --statusz / --prom turn on the live introspection plane (DESIGN.md
    // §4.13): a private metric registry, a flight recorder on the session
    // event stream, a time-series sampler ticking on the service clock, and
    // an SLO watchdog — all observation-only, so the fleet's estimates stay
    // bit-identical with the plane attached.
    const std::string statusz_path = flags.GetString("statusz");
    const std::string prom_path = flags.GetString("prom");
    const bool introspect = !statusz_path.empty() || !prom_path.empty();
    obs::introspect::FlightRecorder recorder(4096);

    service::ServiceOptions sopts;
    sopts.admission.queue_capacity = static_cast<size_t>(sessions) + 1;
    sopts.admission.max_active =
        std::min<size_t>(static_cast<size_t>(sessions), 16);
    sopts.dispatcher_workers = 4;
    if (introspect) {
      sopts.registry = &registry;
      sopts.recorder = &recorder;
    }
    service::EstimationService svc({{.meta = &server,
                                     .wire = transport.get()}},
                                   sopts);

    obs::introspect::TimeSeriesSampler ts(
        {.registry = &registry,
         .clock_ms = [&svc] { return svc.NowMs(); },
         .period_ms = 100.0});
    service::SloWatchdog watchdog(&svc);

    std::vector<service::SessionId> ids;
    for (int r = 0; r < sessions; ++r) {
      service::SessionSpec session;
      session.family = *family;
      session.aggregates = {spec};
      session.k = k;
      session.budget = budget;
      session.seed = seed + static_cast<uint64_t>(r);
      session.sampler = sampler.get();
      session.lnr.cell.search.delta_fraction = 1e-6;
      session.lnr.cell.search.delta_prime_fraction = 1e-4;
      ids.push_back(svc.Submit(session));
    }
    if (introspect) {
      while (svc.RunSlice()) {
        ts.MaybeTick();
        watchdog.Check();
      }
      ts.Tick();  // cut the final partial window
    } else {
      svc.RunUntilIdle();
    }

    Table stable({"session", "state", "estimate", "queries", "dedup hits"});
    RunningStats estimates;
    for (size_t i = 0; i < ids.size(); ++i) {
      const service::SessionStatus done = svc.Poll(ids[i]);
      if (done.state == service::SessionState::kCompleted) {
        estimates.Add(done.results[0].final_estimate);
      }
      stable.AddRow(
          {Table::Int(static_cast<int>(i) + 1),
           service::SessionStateName(done.state),
           done.results.empty()
               ? "-"
               : Table::Num(done.results[0].final_estimate, 2),
           Table::Int(static_cast<long long>(done.queries_used)),
           Table::Int(static_cast<long long>(done.dedup_hits))});
    }

    std::printf("%s over %s (%zu tuples), %d hosted %s sessions, k=%d, "
                "budget %llu\n\n",
                spec.name.c_str(), flags.GetString("dataset").c_str(),
                dataset.size(), sessions, algorithm.c_str(), k,
                static_cast<unsigned long long>(budget));
    stable.Print();
    std::printf("\nmean estimate : %.2f (95%% CI ±%.2f across sessions)\n",
                estimates.mean(), estimates.ConfidenceHalfWidth());
    std::printf("ground truth  : %.2f (simulator-only knowledge)\n", truth);
    std::printf("relative error: %.1f%%\n",
                100.0 * RelativeError(estimates.mean(), truth));
    if (svc.dedup() != nullptr) {
      const service::DedupStats d = svc.dedup()->Stats();
      std::printf("dedup         : %llu of %llu interface queries answered "
                  "from the shared cache\n",
                  static_cast<unsigned long long>(d.hits),
                  static_cast<unsigned long long>(d.lookups));
    }

    if (introspect) {
      service::ServiceIntrospector intro({.service = &svc,
                                          .sharded = transport.get(),
                                          .sampler = &ts,
                                          .recorder = &recorder,
                                          .registry = &registry});
      if (!statusz_path.empty() &&
          !DumpText(statusz_path, intro.BuildStatusz().ToJson() + "\n",
                    "statusz")) {
        return 1;
      }
      if (!prom_path.empty() &&
          !DumpText(prom_path, intro.PrometheusText(), "prometheus export")) {
        return 1;
      }
    }
    return 0;
  }

  Table table({"run", "estimate", "queries", "samples"});
  RunningStats estimates;
  for (int r = 0; r < runs; ++r) {
    const std::optional<RunOutcome> run =
        RunEstimator(flags, *family, spec, server, transport.get(),
                     sampler.get(), seed + r, r);
    if (!run.has_value()) return 1;
    estimates.Add(run->estimate);
    table.AddRow({Table::Int(r + 1), Table::Num(run->estimate, 2),
                  Table::Int(static_cast<long long>(run->queries)),
                  Table::Int(static_cast<long long>(run->rounds))});
  }

  std::printf("%s over %s (%zu tuples), algorithm %s, k=%d, budget %llu\n\n",
              spec.name.c_str(), flags.GetString("dataset").c_str(),
              dataset.size(), algorithm.c_str(), k,
              static_cast<unsigned long long>(budget));
  table.Print();
  std::printf("\nmean estimate : %.2f (95%% CI ±%.2f across runs)\n",
              estimates.mean(), estimates.ConfidenceHalfWidth());
  std::printf("ground truth  : %.2f (simulator-only knowledge)\n", truth);
  std::printf("relative error: %.1f%%\n",
              100.0 * RelativeError(estimates.mean(), truth));
  return 0;
}

}  // namespace
}  // namespace lbsagg

int main(int argc, char** argv) {
  lbsagg::FlagParser flags;
  flags.AddString("dataset", "usa",
                  "usa | china | path to a dataset CSV (see lbs/dataset_io.h)");
  flags.AddInt("n", 10000, "tuples for the built-in scenarios");
  flags.AddInt("scenario-seed", 2015, "seed of the built-in scenarios");
  flags.AddString("algorithm", "lr", "lr | lnr | nno");
  flags.AddString("aggregate", "count", "count | sum | avg");
  flags.AddString("column", "", "numeric column for sum/avg");
  flags.AddString("where", "",
                  "selection condition: 'col=value' (string) or 'col' (bool)");
  flags.AddInt("k", 5, "results requested per query");
  flags.AddInt("shards", 1,
               "partition the hidden database across this many shards and "
               "answer kNN by scatter-gather (results are identical)");
  flags.AddInt("budget", 10000, "query budget per run");
  flags.AddInt("runs", 3, "independent runs");
  flags.AddInt("sessions", 0,
               "host this many concurrent sessions (seeds seed..seed+N-1) in "
               "one EstimationService with cross-session dedup instead of "
               "running sequentially (0 = off)");
  flags.AddInt("seed", 1, "base estimator seed");
  flags.AddString("statusz", "",
                  "with --sessions: attach the live introspection plane and "
                  "dump the statusz JSON snapshot to this path after the "
                  "fleet drains ('-' = stdout)");
  flags.AddString("prom", "",
                  "with --sessions: dump the Prometheus text-format export "
                  "of the fleet's metric registry to this path ('-' = "
                  "stdout)");
  flags.AddString("sampler", "census", "census | uniform");
  flags.AddString("wal-dir", "",
                  "durable run: mirror evidence into a WAL + checkpoints "
                  "under this directory (single engine-native run)");
  flags.AddBool("resume", false,
                "with --wal-dir: recover the directory and continue the "
                "interrupted run bit-identically");
  flags.AddInt("checkpoint-every", 64,
               "with --wal-dir: checkpoint cadence in committed rounds");
  flags.AddInt("kill-after-rounds", 0,
               "with --wal-dir: SIGKILL this process after N rounds "
               "(crash-recovery harness)");
  flags.AddInt("fail-after-bytes", 0,
               "with --wal-dir: stop persisting WAL bytes after N "
               "(torn-tail injection)");
  flags.AddInt("fail-fsync-at", 0,
               "with --wal-dir: fail the Nth WAL fsync (1-based)");
  flags.AddString("export", "",
                  "write the generated dataset to this CSV and exit");
  flags.AddInt("localize", 0,
               "instead of estimating, localize this many tuples through a "
               "rank-only view (§4.3)");
  flags.AddDouble("target-ci", 0.0,
                  "stop each run once the 95% CI half-width falls below this "
                  "fraction of the estimate (0 = run to the budget; count/sum "
                  "only, not with --sessions)");
  flags.AddBool("verbose", false, "print per-run estimator diagnostics");
  flags.AddBool("help", false, "show this help");

  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 1;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.HelpText(argv[0]).c_str(), stdout);
    return 0;
  }
  return lbsagg::Run(flags);
}
