#include "workloads.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "core/aggregate.h"
#include "core/runner.h"
#include "core/sampler.h"
#include "engine/engine.h"
#include "engine/lnr_resolver.h"
#include "engine/log/durable_log.h"
#include "engine/lr_resolver.h"
#include "engine/nno_resolver.h"
#include "lbs/client.h"
#include "lbs/server.h"
#include "lbs/sharded_server.h"
#include "obs/metrics.h"
#include "probes.h"
#include "service/service.h"
#include "transport/sharded_transport.h"
#include "util/stats.h"
#include "workload/scenarios.h"

namespace e2e {

void Report::Check(bool ok, const std::string& what) {
  notes.push_back(std::string(ok ? "gate ok   " : "gate FAIL ") + what);
  if (!ok) correct = false;
}

namespace {

using namespace lbsagg;
namespace fs = std::filesystem;

constexpr uint64_t kDefaultSeed = 1;
// The WAL lives in the checkout, on whatever disk that is, so appends are
// not fsynced and checkpoints (which always fsync the file and the
// directory) come every 512 rounds: the numbers measure the program, not
// the disk — the role a RAM-backed WAL directory would play.
constexpr engine::FsyncMode kFsync = engine::FsyncMode::kNone;
constexpr uint64_t kCheckpointEvery = 512;

// ---------------------------------------------------------------------------
// Sizes. `full` is what the benchmark measures; `smoke` is the small
// configuration the smoke test runs and the correctness gate pins its
// fingerprints on.
// ---------------------------------------------------------------------------

struct Sizes {
  int tuples = 0;
  uint64_t budget = 0;  // interface queries per estimation run / session
  size_t panel = 0;     // runs (sessions) in the accuracy panel
  size_t batch = 0;     // service_fleet: sessions per submitted batch
  int setups = 0;       // set-up repetitions behind setup_s
  // Trace fingerprint of the accuracy panel (every aggregate of every
  // panel run). Any change means the workload's estimates changed.
  uint64_t fingerprint = 0;
};

enum class Kind { kLr, kLnr, kNno, kFleet };

struct WorkloadDef {
  const char* name;
  Kind kind;
  Sizes full;
  Sizes smoke;
  // Mean relative error the kq_to_target_err curve is read at.
  double target_err;
};

const WorkloadDef kWorkloads[] = {
    {"lr_adaptive", Kind::kLr, {20000, 1000, 100, 0, 21, 0x4e81cdac3d8fb9e8},
     {3000, 400, 4, 0, 2, 0x628007d877dc1258}, 0.3},
    {"lnr_localize", Kind::kLnr, {20000, 50000, 100, 0, 21, 0x15d9510ac6df1a83},
     {3000, 6000, 4, 0, 2, 0x989ef654359c5785}, 0.4},
    {"nno_durable", Kind::kNno, {20000, 20000, 96, 0, 21, 0x3f4d2d47916e70d2},
     {3000, 3000, 4, 0, 2, 0xc11092f59b9f8bf8}, 0.6},
    {"service_fleet", Kind::kFleet, {1000000, 2000, 128, 32, 3, 0x5365f14fec0a5ea2},
     {20000, 400, 8, 8, 2, 0x32861f7d01c924c6}, 1.0},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Independent sub-seed `salt` of the workload seed.
uint64_t Derive(uint64_t seed, uint64_t salt) {
  return SplitMix(seed ^ SplitMix(salt + 0x51ed));
}

// The trace-fingerprint mixer of the legacy regression harness.
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t FoldTrace(uint64_t h, const std::vector<TracePoint>& trace) {
  for (const TracePoint& tp : trace) {
    uint64_t bits;
    std::memcpy(&bits, &tp.estimate, sizeof bits);
    h = Mix(h, tp.queries);
    h = Mix(h, bits);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Rank(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  size_t idx = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  idx = std::clamp<size_t>(idx, 1, n);
  return sorted[idx - 1];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FilesystemName(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return "0x" + Hex(static_cast<uint64_t>(st.f_type));
  }
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// Wall clock that stops while the benchmark analyses (trace drain and
// attribution, correctness checks), so wall_ms_per_kq counts the
// program's work only.
class Stopwatch {
 public:
  void Start() {
    running_ = true;
    since_ = NowUs();
  }
  void Pause() {
    if (!running_) return;
    total_ += NowUs() - since_;
    running_ = false;
  }
  double ElapsedUs() const {
    return total_ + (running_ ? NowUs() - since_ : 0.0);
  }

 private:
  bool running_ = false;
  double since_ = 0.0;
  double total_ = 0.0;
};

// ---------------------------------------------------------------------------
// Reference speed. The machines this runs on are shared: the same
// single-threaded work can take 40% longer for tens of seconds while a
// neighbour is busy, and CPU time inflates exactly like wall time. So every
// time metric is measured on the wall clock and then scaled to a reference
// CPU speed: a fixed kernel that never touches the library is timed right
// before and right after each unit of work, and the unit's wall time is
// divided by (kernel time / kReferenceKernelUs). The raw wall figures and
// the speed factor are printed beside the metrics.
// ---------------------------------------------------------------------------

// The kernel's time at the reference speed: its typical time on the 4-vCPU
// Xeon VM the benchmark was sized on.
constexpr double kReferenceKernelUs = 225.0;

double MsPerKq(double us, uint64_t queries) {
  return us / 1000.0 / (static_cast<double>(queries) / 1000.0);
}

// The reference kernel: the kind of work the workloads do — a chain of
// dependent loads beyond L2, small vectors allocated and freed, a sort with
// a floating-point comparator (atan2), shoelace sums, hash-map updates —
// but none of the library's code, so no change to the library can move it.
// About 0.25 ms; the best of three calls is taken.
// Keeps the kernel's result observable, so it is not optimized away.
volatile double g_kernel_sink = 0.0;

double ReferenceKernelUs() {
  // 4 MiB: past a core's L2, like the fleet's shard indexes.
  static const std::vector<uint32_t> far = [] {
    std::vector<uint32_t> t(1u << 20);
    uint64_t x = 7;
    for (uint32_t& v : t) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<uint32_t>(x >> 42);
    }
    return t;
  }();
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowUs();
    uint64_t x = 0x243f6a8885a308d3ull;
    double acc = 0.0;
    // Dependent loads: each index comes from the previous read.
    uint32_t at = 1;
    for (int i = 0; i < 1500; ++i) at = far[(at + i) & (far.size() - 1)];
    acc += at;
    std::unordered_map<uint64_t, double> map;
    for (int round = 0; round < 12; ++round) {
      std::vector<std::pair<double, double>> pts(48);
      for (auto& p : pts) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        p = {static_cast<double>(x >> 40),
             static_cast<double>((x >> 16) & 0xffffff)};
      }
      std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
        return std::atan2(a.second, a.first) < std::atan2(b.second, b.first);
      });
      for (size_t i = 0; i < pts.size(); ++i) {
        const auto& a = pts[i];
        const auto& b = pts[(i + 1) % pts.size()];
        acc += a.first * b.second - a.second * b.first;
        map[x ^ i] += acc;
      }
    }
    g_kernel_sink = acc + static_cast<double>(map.size());
    best = std::min(best, NowUs() - t0);
  }
  return best;
}

// How much slower than the reference the machine runs now (> 1: slower).
double SlowdownNow() { return ReferenceKernelUs() / kReferenceKernelUs; }

// The cost of one closed-loop unit of work: an estimation run, or a fleet
// batch.
struct UnitCost {
  double us = 0.0;        // wall time
  uint64_t queries = 0;
  uint64_t units = 0;     // runs / sessions completed
  double slowdown = 1.0;  // SlowdownNow() around the unit
};

// Everything one timed phase accumulates.
struct Meter {
  bool traced = false;
  Stopwatch clock;
  std::vector<UnitCost> costs;
  std::vector<double> round_us;  // per Step (+checkpoint) or per RunSlice
  uint64_t queries = 0;          // interface queries charged
  uint64_t rounds = 0;           // engine rounds
  uint64_t units = 0;            // estimation runs / sessions completed
  // Traced phases only.
  std::map<std::string, LayerTotals> layers;
  double traced_wall_us = 0.0;   // Σ round wall (or slice wall)
  uint64_t recorder_drops = 0;
  uint64_t observations = 0;
  uint64_t cells_exact = 0, cells_mc = 0;
  uint64_t lnr_inferred = 0, lnr_hits = 0;
  uint64_t nno_probes = 0, nno_hits = 0;
  uint64_t wal_bytes = 0, wal_fsyncs = 0;
  uint64_t dedup_lookups = 0, dedup_hits = 0;
  uint64_t slices = 0;
  // Speed samples of the unit in progress.
  double slowdown_sum = 0.0;
  int slowdown_samples = 0;
  double last_slowdown = 1.0;
  double last_sample_us = 0.0;
  size_t unscaled_round = 0;  // round_us[unscaled_round..] await scaling
};

// Speed sampling (clock paused): one sample at each end of a unit, and
// inside long units (fleet batches) one every kSpeedSampleUs. Rounds are
// scaled by the mean of the two samples around them; the unit's wall time
// by the mean of all its samples.
constexpr double kSpeedSampleUs = 100e3;

void TakeSpeedSample(Meter* m) {
  const double now = SlowdownNow();
  const double between = 0.5 * (m->last_slowdown + now);
  for (size_t i = m->unscaled_round; i < m->round_us.size(); ++i) {
    m->round_us[i] /= between;
  }
  m->unscaled_round = m->round_us.size();
  m->slowdown_sum += now;
  ++m->slowdown_samples;
  m->last_slowdown = now;
  m->last_sample_us = NowUs();
}

void BeginSpeed(Meter* m) {
  m->slowdown_sum = 0.0;
  m->slowdown_samples = 0;
  m->last_slowdown = SlowdownNow();
  TakeSpeedSample(m);
}

// The unit's mean slowdown.
double EndSpeed(Meter* m) {
  TakeSpeedSample(m);
  return m->slowdown_sum / m->slowdown_samples;
}

// Called between rounds with the clock running.
void MaybeSampleSpeed(Meter* m) {
  if (NowUs() - m->last_sample_us < kSpeedSampleUs) return;
  m->clock.Pause();
  TakeSpeedSample(m);
  m->clock.Start();
}

// Per-step trace bookkeeping: drains the library's spans and the probes'
// intervals and folds them into the meter, with the clock paused.
void AttributeStep(Meter* meter, SpanTap* tap, IntervalLog* log,
                   std::vector<Interval> extra) {
  meter->clock.Pause();
  std::vector<Interval> ivs = log->Take();
  for (Interval& iv : extra) ivs.push_back(std::move(iv));
  tap->Drain(&ivs);
  Attribute(std::move(ivs), &meter->layers);
  meter->clock.Start();
}

// ms per 1000 queries over a whole phase, at the reference speed.
double ScaledMsPerKq(const Meter& m) {
  double us = 0.0;
  uint64_t queries = 0;
  for (const UnitCost& c : m.costs) {
    us += c.us / c.slowdown;
    queries += c.queries;
  }
  return MsPerKq(us, queries);
}

// ---------------------------------------------------------------------------
// Estimation backends (lr_adaptive, lnr_localize, nno_durable).
// ---------------------------------------------------------------------------

struct Backend {
  Kind kind = Kind::kLr;
  uint64_t budget = 0;
  int k = 5;
  std::optional<UsaScenario> usa;
  std::optional<ChinaScenario> china;
  std::unique_ptr<LbsServer> server;
  std::unique_ptr<DirectTransport> direct;
  std::unique_ptr<CensusSampler> census;
  std::vector<AggregateSpec> aggregates;  // [0] is the primary aggregate
  double truth = 0.0;                     // its exact value
  obs::MetricsRegistry spatial_stats;
};

// The hidden database is the scenario generator's canonical instance (its
// default seed), as the paper ran against one fixed dataset; the workload
// seed drives the query stream (every run's and session's seed).
std::unique_ptr<Backend> BuildBackend(Kind kind, const Sizes& sizes,
                                      bool traced) {
  auto b = std::make_unique<Backend>();
  b->kind = kind;
  b->budget = sizes.budget;
  ServerOptions server_options;
  server_options.max_k = b->k;
  // The kd-tree work counters cost a flush per search; only traced runs
  // pay it.
  if (traced) server_options.stats_registry = &b->spatial_stats;

  if (kind == Kind::kLnr) {
    ChinaOptions options;
    options.num_users = sizes.tuples;
    b->china.emplace(BuildChinaScenario(options));
    const Dataset& data = *b->china->dataset;
    b->server = std::make_unique<LbsServer>(&data, server_options);
    b->census = std::make_unique<CensusSampler>(&b->china->census);
    const int male = b->china->columns.male_indicator;
    const double mid_x = data.box().Center().x;
    AggregateSpec avg = AggregateSpec::Avg(male, "AVG(male|west)");
    avg.position_condition = [mid_x](const Vec2& p) { return p.x < mid_x; };
    b->aggregates = {AggregateSpec::Count(), avg};
    b->truth = static_cast<double>(data.size());
  } else {
    UsaOptions options;
    options.num_pois = sizes.tuples;
    b->usa.emplace(BuildUsaScenario(options));
    const Dataset& data = *b->usa->dataset;
    b->server = std::make_unique<LbsServer>(&data, server_options);
    b->census = std::make_unique<CensusSampler>(&b->usa->census);
    if (kind == Kind::kLr) {
      const UsaColumns& cols = b->usa->columns;
      const ReturnedTuplePredicate restaurant =
          ColumnEquals(cols.category, "restaurant");
      b->aggregates = {
          AggregateSpec::CountWhere(restaurant, "COUNT(restaurants)"),
          AggregateSpec::SumWhere(cols.rating, restaurant, "SUM(rating|restaurant)"),
          AggregateSpec::AvgWhere(cols.rating, restaurant, "AVG(rating|restaurant)")};
      b->truth = data.GroundTruthCount(CategoryIs(cols, "restaurant"));
    } else {
      // COUNT(*): every round estimates a cell area, so round times have one
      // mode (with a selection about half the rounds skip the estimate, and
      // the median falls between two modes).
      b->aggregates = {AggregateSpec::Count()};
      b->truth = static_cast<double>(data.size());
    }
  }
  b->direct = std::make_unique<DirectTransport>(b->server.get());
  return b;
}

// Aggregate-grade LNR precision (§4: the bias is O(ε); meter-scale edges
// would burn the budget on one sample), for the cell and localization
// searches alike.
LnrAggOptions LnrOptions() {
  LnrAggOptions options;
  options.cell.search.delta_fraction = 1e-6;
  options.cell.search.delta_prime_fraction = 1e-4;
  options.localize.cell.search = options.cell.search;
  return options;
}

struct RunOut {
  std::vector<RunResult> results;  // per aggregate
  uint64_t queries = 0;
  uint64_t rounds = 0;
  uint64_t undelivered = 0;
  std::string wal_dir;  // nno_durable: the run's WAL directory
};

// One estimation run to the budget. Every Step (plus the checkpoint policy
// after it) is one timed round. With `meter->traced` the run is built with
// the span tap and probes and every round is attributed.
RunOut RunEstimation(const Backend& b, uint64_t run_seed,
                     const std::string& wal_dir, Meter* meter) {
  std::unique_ptr<SpanTap> tap;
  IntervalLog log;
  obs::Tracer* tracer = nullptr;
  if (meter->traced) {
    tap = std::make_unique<SpanTap>();
    tracer = tap->tracer();
  }
  ProbeTransport wire(b.direct.get());
  if (meter->traced) wire.set_log(&log);
  ProbeSampler probed_sampler(b.census.get(), &log);
  const QuerySampler* sampler =
      meter->traced ? static_cast<const QuerySampler*>(&probed_sampler)
                    : b.census.get();

  ClientOptions copts;
  copts.k = b.k;
  copts.budget = b.budget;
  copts.tracer = tracer;

  std::unique_ptr<LbsClient> client;
  std::unique_ptr<engine::CellResolver> resolver;
  switch (b.kind) {
    case Kind::kLr: {
      auto c = std::make_unique<LrClient>(b.server.get(), copts, &wire);
      LrAggOptions opts;
      opts.seed = run_seed;
      opts.tracer = tracer;
      resolver = std::make_unique<engine::LrCellResolver>(c.get(), sampler,
                                                          opts);
      client = std::move(c);
      break;
    }
    case Kind::kLnr: {
      auto c = std::make_unique<LnrClient>(b.server.get(), copts, &wire);
      LnrAggOptions opts = LnrOptions();
      opts.seed = run_seed;
      opts.tracer = tracer;
      resolver = std::make_unique<engine::LnrCellResolver>(c.get(), sampler,
                                                           opts);
      client = std::move(c);
      break;
    }
    default: {
      auto c = std::make_unique<LrClient>(b.server.get(), copts, &wire);
      NnoOptions opts;
      opts.seed = run_seed;
      opts.tracer = tracer;
      resolver = std::make_unique<engine::NnoProbeResolver>(c.get(), opts);
      client = std::move(c);
      break;
    }
  }
  ProbeResolver probed_resolver(resolver.get(), &log);
  engine::EstimationEngine eng(
      meter->traced ? static_cast<engine::CellResolver*>(&probed_resolver)
                    : resolver.get(),
      engine::EngineOptions{nullptr, tracer});
  for (const AggregateSpec& spec : b.aggregates) eng.AddAggregate(spec);

  std::unique_ptr<engine::DurableEvidenceLog> wal;
  std::unique_ptr<ProbeSink> probed_sink;
  if (!wal_dir.empty()) {
    engine::DurableLogOptions lopts;
    lopts.dir = wal_dir;
    lopts.checkpoint_every_rounds = kCheckpointEvery;
    lopts.fsync = kFsync;
    wal = std::make_unique<engine::DurableEvidenceLog>(lopts, &eng,
                                                       client.get());
    if (meter->traced) {
      probed_sink = std::make_unique<ProbeSink>(wal.get(), &log);
      eng.AttachSink(probed_sink.get());
    }
  }

  RunOut out;
  while (eng.queries_used() < b.budget) {
    const double t0 = NowUs();
    eng.Step();
    const double t1 = NowUs();
    uint64_t checkpoints_before = 0;
    if (wal != nullptr) {
      checkpoints_before = wal->checkpoints_written();
      wal->MaybeCheckpoint();
    }
    const double t2 = NowUs();
    meter->round_us.push_back(t2 - t0);
    ++out.rounds;
    if (meter->traced) {
      std::vector<Interval> extra = {{"engine.step", t0, t1}};
      if (wal != nullptr && wal->checkpoints_written() != checkpoints_before) {
        extra.push_back({"engine.log.checkpoint", t1, t2});
      }
      meter->traced_wall_us += t2 - t0;
      AttributeStep(meter, tap.get(), &log, std::move(extra));
    }
  }
  if (wal != nullptr) {
    wal->Close();
    eng.AttachSink(nullptr);
  }

  out.queries = eng.queries_used();
  out.undelivered = wire.undelivered();
  for (size_t i = 0; i < eng.num_aggregates(); ++i) {
    const engine::AggregateQuery& q = *eng.aggregate(i);
    out.results.push_back({q.trace(), q.Estimate(), out.queries});
  }
  out.wal_dir = wal_dir;

  meter->queries += out.queries;
  meter->rounds += out.rounds;
  ++meter->units;
  if (meter->traced) {
    meter->recorder_drops += tap->dropped();
    meter->observations += eng.evidence().num_observations();
    if (auto* lr = dynamic_cast<engine::LrCellResolver*>(resolver.get())) {
      meter->cells_exact += lr->diagnostics().cells_exact;
      meter->cells_mc += lr->diagnostics().cells_monte_carlo;
    } else if (auto* lnr =
                   dynamic_cast<engine::LnrCellResolver*>(resolver.get())) {
      meter->lnr_inferred += lnr->diagnostics().cells_inferred;
      meter->lnr_hits += lnr->diagnostics().cache_hits;
    } else if (auto* nno =
                   dynamic_cast<engine::NnoProbeResolver*>(resolver.get())) {
      meter->nno_probes += nno->diagnostics().mc_probes;
      meter->nno_hits += nno->diagnostics().mc_hits;
    }
    if (wal != nullptr) {
      meter->wal_bytes += wal->wal_stats().bytes;
      meter->wal_fsyncs += wal->wal_stats().fsyncs;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The service fleet.
// ---------------------------------------------------------------------------

struct Fleet {
  uint64_t budget = 0;
  size_t batch = 0;
  std::optional<ChinaScenario> china;
  obs::MetricsRegistry spatial_stats;
  obs::MetricsRegistry transport_stats;
  std::unique_ptr<ShardedLbsServer> sharded;
  std::unique_ptr<LbsServer> meta;
  std::unique_ptr<ShardedTransport> wire;
  std::unique_ptr<ProbeTransport> probe;
};

constexpr int kShards = 4;
// Inline batches: the backend work runs on the scheduler's thread. With
// worker threads, slices wait on cross-thread handoffs whose latency on a
// shared VM swings the p99 slice time by 3x from run to run.
constexpr unsigned kDispatcherWorkers = 0;
constexpr size_t kSliceRounds = 4;

service::ServiceOptions FleetServiceOptions(const Fleet& f,
                                            obs::Tracer* tracer) {
  service::ServiceOptions options;
  options.admission.queue_capacity = f.batch + 1;
  // Half the batch active at once: admission, activation and teardown run
  // throughout the batch, not only at its edges.
  options.admission.max_active = std::max<size_t>(1, f.batch / 2);
  options.dispatcher_workers = kDispatcherWorkers;
  options.slice_rounds = kSliceRounds;
  options.dedup = true;
  options.tracer = tracer;
  return options;
}

std::unique_ptr<Fleet> BuildFleet(const Sizes& sizes, bool traced) {
  auto f = std::make_unique<Fleet>();
  f->budget = sizes.budget;
  f->batch = sizes.batch;
  ChinaOptions options;
  options.num_users = sizes.tuples;
  f->china.emplace(BuildChinaScenario(options));
  ShardedServerOptions sopts;
  sopts.num_shards = kShards;
  // One build thread: a parallel build's set-up time swings with how busy
  // the machine's other vCPUs are.
  sopts.build_threads = 1;
  sopts.server.max_k = 5;
  if (traced) sopts.server.stats_registry = &f->spatial_stats;
  f->sharded = std::make_unique<ShardedLbsServer>(f->china->dataset.get(), sopts);
  // Metadata only (schema, region, attribute reads): searches go down the
  // sharded wire, so the cheapest backend does.
  ServerOptions meta_options;
  meta_options.max_k = 5;
  meta_options.index_backend = IndexBackend::kBruteForce;
  f->meta = std::make_unique<LbsServer>(f->china->dataset.get(), meta_options);
  ShardedTransportOptions topts;
  topts.registry = &f->transport_stats;
  f->wire = std::make_unique<ShardedTransport>(f->sharded.get(), topts);
  f->probe = std::make_unique<ProbeTransport>(f->wire.get());
  // Service start-up: the per-backend runtime (dedup wire, dispatcher,
  // default sampler) is built and torn down once here.
  service::EstimationService warm({{.meta = f->meta.get(), .wire = f->probe.get()}},
                                  FleetServiceOptions(*f, nullptr));
  return f;
}

service::SessionSpec FleetSession(const Fleet& f, uint64_t session_seed) {
  service::SessionSpec spec;
  spec.family = service::EstimatorFamily::kNno;
  spec.k = 5;
  spec.budget = f.budget;
  spec.seed = session_seed;
  return spec;
}

struct BatchOut {
  std::vector<service::SessionStatus> sessions;
  uint64_t submitted = 0;
  uint64_t completed = 0;
};

// One closed-loop batch: a fresh service, `batch` sessions with distinct
// seeds, RunSlice until idle. Every RunSlice is one timed round.
BatchOut RunBatch(Fleet* f, uint64_t batch_seed, Meter* meter) {
  std::unique_ptr<SpanTap> tap;
  IntervalLog log;
  obs::Tracer* tracer = nullptr;
  if (meter->traced) {
    tap = std::make_unique<SpanTap>();
    tracer = tap->tracer();
    f->probe->set_log(&log);
  }
  BatchOut out;
  {
    service::EstimationService svc(
        {{.meta = f->meta.get(), .wire = f->probe.get()}},
        FleetServiceOptions(*f, tracer));
    std::vector<service::SessionId> ids;
    for (size_t j = 0; j < f->batch; ++j) {
      ids.push_back(svc.Submit(FleetSession(*f, Derive(batch_seed, j))));
    }
    for (;;) {
      const double t0 = NowUs();
      const bool more = svc.RunSlice();
      const double t1 = NowUs();
      if (!more) break;
      meter->round_us.push_back(t1 - t0);
      ++meter->slices;
      MaybeSampleSpeed(meter);
      if (meter->traced) {
        meter->traced_wall_us += t1 - t0;
        AttributeStep(meter, tap.get(), &log, {{"service.slice", t0, t1}});
      }
    }
    for (service::SessionId id : ids) out.sessions.push_back(svc.Poll(id));
    out.submitted = svc.submitted();
    out.completed = svc.completed();
    if (meter->traced) {
      if (const service::QueryDedupRegistry* dedup = svc.dedup()) {
        const service::DedupStats stats = dedup->Stats();
        meter->dedup_lookups += stats.lookups;
        meter->dedup_hits += stats.hits;
      }
    }
  }
  if (meter->traced) {
    f->probe->set_log(nullptr);
    meter->recorder_drops += tap->dropped();
  }
  for (const service::SessionStatus& s : out.sessions) {
    meter->queries += s.queries_used;
    meter->rounds += s.rounds;
  }
  meter->units += out.completed;
  return out;
}

// ---------------------------------------------------------------------------
// Result metrics.
// ---------------------------------------------------------------------------

// rel_err and kq_to_target_err of the accuracy panel: a fixed set of runs
// (sessions) at the default seed, so both are exact regression detectors —
// a change that only moves CPU leaves them bit-identical.

void AddAccuracy(const std::vector<RunResult>& panel, double truth,
                 double target, Report* report) {
  double rel = 0.0;
  for (const RunResult& r : panel) rel += RelativeError(r.final_estimate, truth);
  rel /= static_cast<double>(panel.size());
  const ErrorCurve curve = ComputeErrorCurve(panel, truth);
  const double cost = QueryCostForError(curve, target);
  const bool reached = curve.mean_rel_error.back() <= target;
  report->Add("rel_err", rel, "ratio");
  report->Add("kq_to_target_err", cost / 1000.0, "kq");
  report->notes.push_back("accuracy  " + std::to_string(panel.size()) +
                          " runs, target " + Fmt("%.2f", target) +
                          (reached ? " reached" : " NOT reached (lower bound)"));
  std::string line = "curve     mean rel err at kq:";
  for (size_t i = 5; i < curve.checkpoints.size(); i += 6) {
    line += ' ';
    line += Fmt("%.3g", curve.checkpoints[i] / 1000.0);
    line += '=';
    line += Fmt("%.3f", curve.mean_rel_error[i]);
  }
  report->notes.push_back(line);
}

// Throughput metrics are medians over chunks of consecutive units of about
// `chunk_s` seconds each, so a burst of interference from outside the
// process moves a few chunks rather than the result.
void AddTiming(const Meter& m, double chunk_s, Report* report) {
  std::vector<double> ms_per_kq, units_per_s, raw_ms_per_kq, slowdowns;
  double wall_us = 0.0, scaled_us = 0.0;
  uint64_t queries = 0, units = 0;
  for (size_t i = 0; i < m.costs.size(); ++i) {
    const UnitCost& c = m.costs[i];
    wall_us += c.us;
    scaled_us += c.us / c.slowdown;
    queries += c.queries;
    units += c.units;
    // A trailing partial chunk only counts when it is the only one.
    if (wall_us >= chunk_s * 1e6 || (i + 1 == m.costs.size() && ms_per_kq.empty())) {
      ms_per_kq.push_back(MsPerKq(scaled_us, queries));
      units_per_s.push_back(static_cast<double>(units) / (scaled_us / 1e6));
      raw_ms_per_kq.push_back(MsPerKq(wall_us, queries));
      slowdowns.push_back(wall_us / scaled_us);
      wall_us = scaled_us = 0.0;
      queries = units = 0;
    }
  }
  std::vector<double> sorted = m.round_us;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  // The highest percentile that still has >= 10 samples beyond it.
  const double tail_p = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  report->Add("wall_ms_per_kq", Median(ms_per_kq), "ms");
  report->Add("round_us_p50", Rank(sorted, 0.5), "us");
  report->Add("round_us_p99", Rank(sorted, tail_p), "us");
  report->Add("sessions_per_s", Median(units_per_s), "1/s");
  report->notes.push_back(
      "timing    " + std::to_string(ms_per_kq.size()) + " chunks of " +
      Fmt("%g", chunk_s) + " s, " + std::to_string(m.units) + " runs/sessions, " +
      std::to_string(m.queries) + " queries; " + std::to_string(sorted.size()) +
      " rounds, round_us_p99 is p" + Fmt("%.4g", 100.0 * tail_p));
  report->notes.push_back(
      "speed     median slowdown " + Fmt("%.4g", Median(slowdowns)) +
      " vs the reference; raw wall_ms_per_kq " + Fmt("%.6g", Median(raw_ms_per_kq)));
}

// ---------------------------------------------------------------------------
// Correctness gate parts shared by every workload.
// ---------------------------------------------------------------------------

// The pre-engine harness of the legacy regression fingerprint, driven
// through the engine API: three fixed-seed LR runs over the 6000-POI USA
// scenario with the census sampler, COUNT(restaurants), budget 4000.
uint64_t LegacyFig12Fingerprint() {
  UsaOptions uopts;
  uopts.num_pois = 6000;
  const UsaScenario usa = BuildUsaScenario(uopts);
  LbsServer server(usa.dataset.get(), {.max_k = 5});
  CensusSampler sampler(&usa.census);
  const AggregateSpec spec = AggregateSpec::CountWhere(
      ColumnEquals(usa.columns.category, "restaurant"), "COUNT(restaurants)");
  uint64_t hash = 0;
  for (uint64_t seed = 42; seed < 45; ++seed) {
    LrClient client(&server, {.k = 5, .budget = 4000});
    LrAggOptions opts;
    opts.seed = seed;
    engine::LrCellResolver resolver(&client, &sampler, opts);
    engine::EstimationEngine eng(&resolver);
    const engine::AggregateQuery* q = eng.AddAggregate(spec);
    while (eng.queries_used() < 4000) eng.Step();
    hash = FoldTrace(hash, q->trace());
  }
  return hash;
}

void CheckFingerprint(uint64_t pinned, uint64_t got, Report* report) {
  report->Check(got == pinned, "panel trace fingerprint " + Hex(got) +
                                   " == pinned " + Hex(pinned));
}

// Per-run invariants of the estimation workloads.
void CheckRun(const Backend& b, const RunOut& run, Report* report,
              bool* avg_ok, bool* wal_ok) {
  if (b.kind == Kind::kLr) {
    // AVG is folded from the same evidence as SUM and COUNT, so it must be
    // their exact quotient at every point of the trace.
    const auto& count = run.results[0].trace;
    const auto& sum = run.results[1].trace;
    const auto& avg = run.results[2].trace;
    for (size_t i = 0; i < avg.size(); ++i) {
      const double expect = count[i].estimate == 0.0
                                ? 0.0
                                : sum[i].estimate / count[i].estimate;
      if (avg[i].estimate != expect) *avg_ok = false;
    }
  }
  if (!run.wal_dir.empty()) {
    const engine::RecoveredRun rec = engine::RecoverDurableRun(run.wal_dir);
    const bool ok = rec.error.empty() && rec.found_checkpoint &&
                    rec.torn_bytes == 0 && rec.discarded_rounds == 0 &&
                    rec.checkpoint.round == run.rounds &&
                    rec.checkpoint.queries_used == run.queries;
    if (!ok && *wal_ok) {
      report->notes.push_back("wal       " + run.wal_dir + ": error='" +
                              rec.error + "' round " +
                              std::to_string(rec.checkpoint.round) + " of " +
                              std::to_string(run.rounds) + ", torn bytes " +
                              std::to_string(rec.torn_bytes));
    }
    if (!ok) *wal_ok = false;
    std::error_code ec;
    fs::remove_all(run.wal_dir, ec);
  }
}

std::string WalDir(const Options& o, const char* tag, uint64_t i) {
  return (fs::path(o.work_dir) / "wal" /
          (std::string(tag) + "-" + Hex(o.seed) + "-" + std::to_string(i)))
      .string();
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced phase.
// ---------------------------------------------------------------------------

double Per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddLayers(const Meter& m, double untraced_ms_per_kq,
               obs::MetricsRegistry* spatial, Fleet* fleet, Report* report) {
  auto layer = [&m](const char* name) {
    auto it = m.layers.find(name);
    return it == m.layers.end() ? LayerTotals{} : it->second;
  };
  const double rounds = static_cast<double>(m.rounds);
  const LayerTotals step = layer("engine.step");
  const LayerTotals slice = layer("service.slice");
  const LayerTotals eround = layer("engine.round");
  const LayerTotals resolve = layer("engine.resolve");
  const LayerTotals est_round = layer("estimator.round");
  const LayerTotals cell = layer("estimator.cell");
  const LayerTotals client = layer("client.query");
  const LayerTotals client_batch = layer("client.query_batch");
  const LayerTotals sampler = layer("core.sampler");
  const LayerTotals server = layer("lbs.server");
  const LayerTotals append = layer("engine.log.append");
  const LayerTotals ckpt = layer("engine.log.checkpoint");

  report->Add("engine.resolver.self_us_per_round", Per(est_round.self_us, rounds), "us");
  report->Add("core.cell.self_us_per_cell", Per(cell.self_us, cell.count), "us");
  report->Add("core.cell.queries_per_cell",
              Per(cell.server_calls_below, cell.count), "count");
  report->Add("core.cells_per_round", Per(cell.count, rounds), "count");
  report->Add("core.sampler.us_per_round", Per(sampler.inclusive_us, rounds), "us");
  report->Add("client.self_us_per_query",
              Per(client.self_us + client_batch.self_us, server.count), "us");
  report->Add("lbs.server.us_per_query", Per(server.inclusive_us, server.count), "us");
  report->Add("lbs.server.share", Per(server.inclusive_us, m.traced_wall_us), "ratio");

  const double searches = static_cast<double>(
      spatial->GetCounter("spatial.kdtree.searches")->Value());
  report->Add("spatial.nodes_per_search",
              Per(spatial->GetCounter("spatial.kdtree.nodes_visited")->Value(), searches),
              "count");
  report->Add("spatial.points_per_search",
              Per(spatial->GetCounter("spatial.kdtree.points_tested")->Value(), searches),
              "count");

  report->Add("lbs.queries_per_round", Per(m.queries, rounds), "count");
  const double lr_cells = static_cast<double>(m.cells_exact + m.cells_mc);
  const double lnr_lookups = static_cast<double>(m.lnr_hits + m.lnr_inferred);
  report->Add("core.lr.exact_cell_frac", Per(m.cells_exact, lr_cells), "ratio");
  report->Add("core.lnr.cache_hit_frac", Per(m.lnr_hits, lnr_lookups), "ratio");
  report->Add("core.nno.mc_hit_frac", Per(m.nno_hits, m.nno_probes), "ratio");
  report->notes.push_back(
      "bases     " + std::to_string(static_cast<uint64_t>(lr_cells)) +
      " LR cells, " + std::to_string(static_cast<uint64_t>(lnr_lookups)) +
      " LNR probability lookups, " + std::to_string(m.nno_probes) +
      " NNO probes, " + std::to_string(m.rounds) + " rounds, " +
      std::to_string(m.queries) + " queries, " +
      std::to_string(static_cast<uint64_t>(searches)) + " kd searches");

  // Step minus ResolveRound; the fleet has no resolver probe, so its
  // engine.round spans (which wrap exactly ResolveRound) stand in.
  const double resolve_us = resolve.count > 0 ? resolve.inclusive_us : eround.inclusive_us;
  report->Add("engine.fold.us_per_round",
              step.count > 0 ? Per(step.inclusive_us - resolve_us, rounds) : 0.0, "us");
  report->Add("engine.obs_per_round", Per(m.observations, rounds), "count");
  report->Add("engine.log.append_us_per_round", Per(append.inclusive_us, rounds), "us");
  report->Add("engine.log.bytes_per_round", Per(m.wal_bytes, rounds), "bytes");
  report->Add("engine.log.checkpoint_us_per_round", Per(ckpt.inclusive_us, rounds), "us");
  report->Add("engine.log.fsyncs_per_round", Per(m.wal_fsyncs, rounds), "count");

  double fanout = 0.0;
  if (fleet != nullptr) {
    uint64_t lane_requests = 0;
    for (int s = 0; s < fleet->wire->num_shards(); ++s) {
      lane_requests += fleet->wire->ShardMetrics(s).requests;
    }
    fanout = Per(lane_requests, fleet->wire->Metrics().requests);
  }
  report->Add("service.self_us_per_slice",
              Per(slice.inclusive_us - eround.inclusive_us, m.slices), "us");
  report->Add("service.dedup.hit_frac", Per(m.dedup_hits, m.dedup_lookups), "ratio");
  report->Add("transport.shard_fanout", fanout, "count");

  // Coverage: the part of the round wall that named layers below the root
  // (engine.step / service.slice) account for.
  double named = 0.0;
  for (const auto& [name, totals] : m.layers) {
    report->notes.push_back(
        "layer     " + name + ": " + Fmt("%.4g", Per(totals.count, rounds)) +
        " per round, self " + Fmt("%.4g", Per(totals.self_us, rounds)) +
        " us/round, inclusive " + Fmt("%.4g", Per(totals.inclusive_us, rounds)) +
        " us/round");
    if (name == "engine.step" || name == "service.slice") continue;
    named += totals.self_us;
  }
  const double traced_ms_per_kq = ScaledMsPerKq(m);
  report->Add("trace.coverage", Per(named, m.traced_wall_us), "ratio");
  report->Add("trace.overhead_frac", traced_ms_per_kq / untraced_ms_per_kq - 1.0,
              "ratio");
  report->Add("trace.recorder_drops", static_cast<double>(m.recorder_drops), "count");
}

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

template <typename T, typename Build>
std::unique_ptr<T> TimedSetup(int repetitions, Build build, double* median_s) {
  std::vector<double> seconds;
  std::unique_ptr<T> built;
  for (int i = 0; i < repetitions; ++i) {
    built.reset();  // keep one copy alive at a time
    const double slow_before = SlowdownNow();
    const double t0 = NowUs();
    built = build();
    const double wall_s = (NowUs() - t0) / 1e6;
    seconds.push_back(wall_s / (0.5 * (slow_before + SlowdownNow())));
  }
  *median_s = Median(seconds);
  return built;
}

// The kd-tree counters are cumulative; traced phases read them from zero.
void ResetSpatialCounters(obs::MetricsRegistry* spatial) {
  for (const char* name : {"spatial.kdtree.searches", "spatial.kdtree.nodes_visited",
                           "spatial.kdtree.leaves_scanned",
                           "spatial.kdtree.points_tested"}) {
    spatial->GetCounter(name)->Drain();
  }
}

constexpr double kChunkSeconds = 0.5;

void RunEstimationWorkload(const WorkloadDef& def, const Options& o,
                           Report* report) {
  const Sizes& sizes = o.smoke ? def.smoke : def.full;
  const bool durable = def.kind == Kind::kNno;
  double setup_s = 0.0;
  auto backend = TimedSetup<Backend>(
      sizes.setups,
      [&] { return BuildBackend(def.kind, sizes, o.trace); }, &setup_s);

  bool avg_ok = true, wal_ok = true;
  uint64_t undelivered = 0;
  auto check = [&](const RunOut& run) {
    undelivered += run.undelivered;
    CheckRun(*backend, run, report, &avg_ok, &wal_ok);
  };

  // Accuracy panel and pinned fingerprint, at the default seed. It also
  // warms caches and the allocator before the timed phase.
  Meter panel_meter;
  std::vector<RunResult> panel;
  uint64_t hash = 0;
  for (size_t i = 0; i < sizes.panel; ++i) {
    const RunOut run = RunEstimation(*backend, Derive(kDefaultSeed, 100 + i),
                                     durable ? WalDir(o, "panel", i) : "",
                                     &panel_meter);
    for (const RunResult& r : run.results) hash = FoldTrace(hash, r.trace);
    panel.push_back(run.results[0]);
    check(run);
  }
  CheckFingerprint(sizes.fingerprint, hash, report);

  // Timed phase: runs seeded from the workload seed until `seconds` of
  // program work have passed. The clock runs only inside RunEstimation.
  uint64_t unit = 0;
  auto run_phase = [&](Meter* meter, double seconds) {
    while (meter->clock.ElapsedUs() < seconds * 1e6) {
      const uint64_t i = unit++;
      BeginSpeed(meter);
      const double before = meter->clock.ElapsedUs();
      meter->clock.Start();
      const RunOut run = RunEstimation(*backend, Derive(o.seed, 100 + i),
                                       durable ? WalDir(o, def.name, i) : "",
                                       meter);
      meter->clock.Pause();
      meter->costs.push_back(
          {meter->clock.ElapsedUs() - before, run.queries, 1, EndSpeed(meter)});
      check(run);
    }
  };

  Meter untraced;
  if (!o.trace) {
    run_phase(&untraced, o.seconds);
    report->Add("setup_s", setup_s, "s");
    AddTiming(untraced, kChunkSeconds, report);
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    AddAccuracy(panel, backend->truth, def.target_err, report);
    report->attempted = panel_meter.queries + untraced.queries;
  } else {
    // Untraced reference half, then the traced half on the same backend.
    run_phase(&untraced, o.seconds / 2);
    Meter traced;
    traced.traced = true;
    ResetSpatialCounters(&backend->spatial_stats);
    run_phase(&traced, o.seconds / 2);
    AddLayers(traced, ScaledMsPerKq(untraced),
              &backend->spatial_stats, nullptr, report);
    report->attempted = panel_meter.queries + untraced.queries + traced.queries;
  }
  report->failed = undelivered;
  report->Check(undelivered == 0, "every interface query delivered (" +
                                      std::to_string(undelivered) + " undelivered)");
  if (def.kind == Kind::kLr) {
    report->Check(avg_ok, "AVG == SUM/COUNT exactly at every trace point");
  }
  if (durable) {
    report->Check(wal_ok,
                  "RecoverDurableRun returns the final round, zero torn bytes, "
                  "on every run's WAL directory");
  }
}

void RunFleetWorkload(const WorkloadDef& def, const Options& o,
                      Report* report) {
  const Sizes& sizes = o.smoke ? def.smoke : def.full;
  double setup_s = 0.0;
  auto fleet = TimedSetup<Fleet>(
      sizes.setups, [&] { return BuildFleet(sizes, o.trace); },
      &setup_s);
  uint64_t submitted = 0, completed = 0;
  auto tally = [&](const BatchOut& out) {
    submitted += out.submitted;
    completed += out.completed;
  };

  // Accuracy panel and pinned fingerprint: whole batches at the default
  // seed.
  Meter panel_meter;
  std::vector<RunResult> panel;
  uint64_t hash = 0;
  for (uint64_t b = 0; panel.size() < sizes.panel; ++b) {
    const BatchOut out = RunBatch(fleet.get(), Derive(kDefaultSeed, 200 + b),
                                  &panel_meter);
    tally(out);
    for (const service::SessionStatus& s : out.sessions) {
      for (const RunResult& r : s.results) hash = FoldTrace(hash, r.trace);
      if (!s.results.empty()) panel.push_back(s.results[0]);
    }
    if (out.completed == 0) break;
  }
  CheckFingerprint(sizes.fingerprint, hash, report);

  uint64_t batch_index = 0;
  bool solo_ok = false;
  auto run_phase = [&](Meter* meter, double seconds) {
    while (meter->clock.ElapsedUs() < seconds * 1e6) {
      const uint64_t batch_seed = Derive(o.seed, 200 + batch_index++);
      BeginSpeed(meter);
      const double before = meter->clock.ElapsedUs();
      const uint64_t queries_before = meter->queries;
      meter->clock.Start();
      const BatchOut out = RunBatch(fleet.get(), batch_seed, meter);
      meter->clock.Pause();
      meter->costs.push_back({meter->clock.ElapsedUs() - before,
                              meter->queries - queries_before, out.completed,
                              EndSpeed(meter)});
      tally(out);
      if (batch_index == 1) {
        // One sampled session, rerun alone on a fresh service, must match
        // its fleet run bit for bit (dedup and scheduling are invisible).
        const size_t j = o.seed % fleet->batch;
        service::EstimationService solo(
            {{.meta = fleet->meta.get(), .wire = fleet->probe.get()}},
            FleetServiceOptions(*fleet, nullptr));
        const service::SessionId id =
            solo.Submit(FleetSession(*fleet, Derive(batch_seed, j)));
        solo.RunUntilIdle();
        const service::SessionStatus alone = solo.Poll(id);
        const service::SessionStatus& crowd = out.sessions[j];
        solo_ok = alone.state == service::SessionState::kCompleted &&
                  !alone.results.empty() && !crowd.results.empty() &&
                  FoldTrace(0, alone.results[0].trace) ==
                      FoldTrace(0, crowd.results[0].trace) &&
                  alone.queries_used == crowd.queries_used;
      }
    }
  };

  Meter untraced;
  if (!o.trace) {
    run_phase(&untraced, o.seconds);
    report->Add("setup_s", setup_s, "s");
    // Batches are the units; each is about a second long, so it is its own
    // chunk.
    AddTiming(untraced, kChunkSeconds, report);
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
    AddAccuracy(panel, static_cast<double>(fleet->china->dataset->size()),
                def.target_err, report);
  } else {
    run_phase(&untraced, o.seconds / 2);
    fleet->wire->ResetMetrics();
    ResetSpatialCounters(&fleet->spatial_stats);
    Meter traced;
    traced.traced = true;
    run_phase(&traced, o.seconds / 2);
    AddLayers(traced, ScaledMsPerKq(untraced),
              &fleet->spatial_stats, fleet.get(), report);
  }
  report->attempted = submitted;
  report->failed = submitted - completed;
  report->Check(completed == submitted,
                "every session completed (" + std::to_string(completed) + " of " +
                    std::to_string(submitted) + ")");
  report->Check(solo_ok, "a sampled session matches its solo run bit for bit");
  report->Check(fleet->probe->undelivered() == 0,
                "every backend query delivered");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const WorkloadDef& w : kWorkloads) out.push_back(w.name);
    return out;
  }();
  return names;
}

bool RunWorkload(const Options& options, Report* report) {
  const WorkloadDef* def = FindWorkload(options.workload);
  if (def == nullptr) return false;
  const Sizes& sizes = options.smoke ? def->smoke : def->full;
  const bool durable = def->kind == Kind::kNno;
  auto& ctx = report->context;
  ctx.push_back({"workload", def->name});
  ctx.push_back({"seed", std::to_string(options.seed)});
  ctx.push_back({"seconds", Fmt("%g", options.seconds)});
  ctx.push_back({"trace", options.trace ? "1" : "0"});
  ctx.push_back({"smoke", options.smoke ? "1" : "0"});
  ctx.push_back({"nproc", std::to_string(Nproc())});
  ctx.push_back({"build_type", E2E_BUILD_TYPE});
  ctx.push_back({"tuples", std::to_string(sizes.tuples)});
  ctx.push_back({"budget", std::to_string(sizes.budget)});
  ctx.push_back({"wal_fs", durable ? FilesystemName(options.work_dir) : "none"});
  ctx.push_back({"fsync_mode", durable ? engine::FsyncModeName(kFsync) : "none"});
  if (def->kind == Kind::kFleet) {
    ctx.push_back({"shards", std::to_string(kShards)});
    ctx.push_back({"dispatcher_workers", std::to_string(kDispatcherWorkers)});
    ctx.push_back({"sessions_per_batch", std::to_string(sizes.batch)});
  }

  if (def->kind == Kind::kFleet) {
    RunFleetWorkload(*def, options, report);
  } else {
    RunEstimationWorkload(*def, options, report);
  }
  report->Check(LegacyFig12Fingerprint() == 0x8e13737b33817270ull,
                "legacy fig12 fingerprint 8e13737b33817270");
  // A run that fails the gate counts as fully failed.
  if (!report->correct) report->failed = report->attempted;
  return true;
}

}  // namespace e2e
