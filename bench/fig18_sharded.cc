// Figure 18 at production scale: the sharded hidden database at 10^7–10^8
// tuples. Three series, tracked in BENCH_shard.json:
//
//   1. Build scaling — partitioning the dataset and building one index per
//      shard vs one monolithic index. Per-shard builds are independent, so
//      an N-core machine pays partition_ms + the shard-build makespan; the
//      modeled-core makespan (greedy LPT over the measured per-shard
//      durations) is reported next to the infinite-core critical path so
//      the speedup claim does not depend on the benchmark host's own core
//      count (this repo's reference numbers come from a 1-core VM).
//   2. Scatter-gather throughput — queries through ShardedTransport, each
//      shard lane metering its own token bucket. With spatial shards and a
//      finite coverage radius a query's scatter targets only the shards
//      whose region it can reach, so the per-lane load — and the
//      virtual-time throughput — scales with the shard count.
//   3. The Figure-18 estimator curve at scale — COUNT(*) via the NNO
//      estimator through the full sharded stack. Clean lanes are
//      estimator-invisible (sweep_determinism_test.cc), so one shard count
//      represents them all.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "lbs/sharded_server.h"
#include "spatial/backend.h"
#include "transport/sharded_transport.h"
#include "util/flags.h"
#include "util/table.h"
#include "workload/generators.h"

namespace lbsagg {
namespace bench {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> ParseIntList(const std::string& csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const size_t end = comma == std::string::npos ? csv.size() : comma;
    out.push_back(std::stoi(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

// Makespan of the measured per-shard build durations on `cores` workers
// under greedy longest-processing-time scheduling — what a `cores`-core
// machine pays for the fleet build after the (serial) partition.
double MakespanMs(std::vector<double> durations, int cores) {
  std::sort(durations.rbegin(), durations.rend());
  std::vector<double> load(std::max(cores, 1), 0.0);
  for (double d : durations) {
    *std::min_element(load.begin(), load.end()) += d;
  }
  return *std::max_element(load.begin(), load.end());
}

struct BuildRow {
  int shards = 0;
  double partition_ms = 0;
  double max_shard_ms = 0;
  double critical_path_ms = 0;  // partition + max shard (unbounded cores)
  double modeled_ms = 0;        // partition + LPT makespan on --cores
  double speedup_vs_single = 0;
};

struct ThroughputRow {
  int shards = 0;
  double fanout_per_query = 0;
  double virtual_ms = 0;
  double virtual_qps = 0;
  double wall_qps = 0;
};

std::string Json(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace
}  // namespace bench
}  // namespace lbsagg

int main(int argc, char** argv) {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  FlagParser flags;
  flags.AddString("tuples", "10000000", "comma-separated dataset sizes");
  flags.AddString("shards", "1,4,16", "comma-separated shard counts");
  flags.AddInt("queries", 20000, "kNN queries per throughput series");
  flags.AddInt("k", 10, "results per query");
  flags.AddInt("cores", 8, "modeled core count for the build makespan");
  flags.AddInt("budget", 2000, "estimator query budget");
  flags.AddInt("runs", 2, "estimator repetitions");
  flags.AddInt("estimator-max-tuples", 10000000,
               "skip the estimator series above this size");
  flags.AddString("json", "", "write the curated JSON document here");
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(),
                 flags.HelpText(argv[0]).c_str());
    return 1;
  }
  const std::vector<int> sizes = ParseIntList(flags.GetString("tuples"));
  const std::vector<int> shard_counts = ParseIntList(flags.GetString("shards"));
  const int num_queries = static_cast<int>(flags.GetInt("queries"));
  const int k = static_cast<int>(flags.GetInt("k"));
  const int cores = static_cast<int>(flags.GetInt("cores"));
  const uint64_t budget = static_cast<uint64_t>(flags.GetInt("budget"));
  const int runs = static_cast<int>(flags.GetInt("runs"));
  const int estimator_max = static_cast<int>(flags.GetInt(
      "estimator-max-tuples"));

  const Box box({0, 0}, {1000, 1000});
  std::string json = "{\n \"config\": {\"index\": \"kdtree\", \"k\": " +
                     std::to_string(k) +
                     ", \"queries\": " + std::to_string(num_queries) +
                     ", \"modeled_cores\": " + std::to_string(cores) + "}";

  for (int n : sizes) {
    std::printf("== n = %d ==\n", n);
    Rng rng(2015);
    const std::vector<Vec2> points = GenerateUniform(n, box, rng);
    Dataset dataset(box, Schema{});
    for (const Vec2& p : points) dataset.Add(p, {});

    // Coverage radius d_max sized so a page holds ~k tuples: the interface
    // restriction of §5.3, and what lets the scatter skip unreachable
    // shards.
    ServerOptions sopts;
    sopts.max_k = k;
    sopts.max_radius =
        4.0 * std::sqrt(k * box.Area() / (3.141592653589793 * n));

    // --- 1. Build scaling ---------------------------------------------
    double t0 = NowMs();
    const std::unique_ptr<SpatialIndex> single =
        MakeSpatialIndex(SpatialBackend::kKdTree, points);
    const double single_ms = NowMs() - t0;
    std::printf("single index build: %.0f ms\n", single_ms);

    Table build_table({"shards", "partition ms", "max shard ms",
                       "critical path ms",
                       std::to_string(cores) + "-core ms", "speedup"});
    std::vector<BuildRow> build_rows;
    std::vector<std::unique_ptr<ShardedLbsServer>> servers;
    for (int shards : shard_counts) {
      servers.push_back(std::make_unique<ShardedLbsServer>(
          &dataset, ShardedServerOptions{.num_shards = shards,
                                         .build_threads = 1,
                                         .server = sopts}));
      const ShardBuildStats& stats = servers.back()->build_stats();
      BuildRow row;
      row.shards = shards;
      row.partition_ms = stats.partition_ms;
      row.max_shard_ms = *std::max_element(stats.shard_build_ms.begin(),
                                           stats.shard_build_ms.end());
      row.critical_path_ms = stats.critical_path_ms();
      row.modeled_ms =
          stats.partition_ms + MakespanMs(stats.shard_build_ms, cores);
      row.speedup_vs_single = single_ms / row.modeled_ms;
      build_rows.push_back(row);
      build_table.AddRow({Table::Int(shards), Table::Num(row.partition_ms, 0),
                          Table::Num(row.max_shard_ms, 0),
                          Table::Num(row.critical_path_ms, 0),
                          Table::Num(row.modeled_ms, 0),
                          Table::Num(row.speedup_vs_single, 2) + "x"});
    }
    build_table.Print();

    // --- 2. Scatter-gather throughput ---------------------------------
    Rng qrng(4242);
    std::vector<Vec2> queries;
    queries.reserve(num_queries);
    for (int i = 0; i < num_queries; ++i) queries.push_back(box.SamplePoint(qrng));

    Table tp_table({"shards", "fanout/query", "virtual s", "virtual qps",
                    "wall qps"});
    std::vector<ThroughputRow> tp_rows;
    for (size_t s = 0; s < shard_counts.size(); ++s) {
      ShardedTransportOptions topts;
      topts.rate_limit = {.capacity = 32.0, .refill_per_sec = 200.0};
      topts.latency.fixed_ms = 5.0;
      // Open-loop client: throughput is set by the per-lane quotas, not by
      // per-query latency, so it can scale with the shard count.
      topts.pipelined_clock = true;
      ShardedTransport transport(servers[s].get(), topts);
      uint64_t fanout = 0;
      const double w0 = NowMs();
      for (const Vec2& q : queries) {
        const TransportPlan plan = transport.Prepare(q, k);
        (void)transport.Fulfill(plan, q, k, nullptr);
      }
      const double wall_ms = NowMs() - w0;
      for (int lane = 0; lane < shard_counts[s]; ++lane) {
        fanout += transport.ShardMetrics(lane).requests;
      }
      ThroughputRow row;
      row.shards = shard_counts[s];
      row.fanout_per_query = static_cast<double>(fanout) / num_queries;
      row.virtual_ms = transport.VirtualNowMs();
      row.virtual_qps = 1000.0 * num_queries / row.virtual_ms;
      row.wall_qps = 1000.0 * num_queries / wall_ms;
      tp_rows.push_back(row);
      tp_table.AddRow({Table::Int(row.shards),
                       Table::Num(row.fanout_per_query, 2),
                       Table::Num(row.virtual_ms / 1000.0, 1),
                       Table::Num(row.virtual_qps, 0),
                       Table::Num(row.wall_qps, 0)});
    }
    tp_table.Print();

    // --- 3. Figure-18 estimator curve at scale ------------------------
    double est_mean_error = -1.0, est_mean_queries = -1.0;
    if (n <= estimator_max) {
      // Clean lanes: any shard count gives the same trace; use the middle
      // one.
      const ShardedLbsServer* sharded =
          servers[std::min<size_t>(1, servers.size() - 1)].get();
      ShardedTransport transport(sharded, {});
      double err_sum = 0.0, query_sum = 0.0;
      for (int r = 0; r < runs; ++r) {
        LrClient client(sharded, {.k = k, .budget = budget}, &transport);
        engine::NnoProbeResolver resolver(
            &client, {.seed = 42 + static_cast<uint64_t>(r)});
        const RunResult result =
            RunToBudget(&resolver, AggregateSpec::Count(), budget);
        err_sum += std::abs(result.final_estimate - n) / n;
        query_sum += static_cast<double>(result.queries);
      }
      est_mean_error = err_sum / runs;
      est_mean_queries = query_sum / runs;
      std::printf("estimator: COUNT(*) rel error %.3f at %.0f queries "
                  "(NNO, %d runs)\n",
                  est_mean_error, est_mean_queries, runs);
    }

    // --- JSON ----------------------------------------------------------
    json += ",\n \"n=" + std::to_string(n) + "\": {\n";
    json += "  \"single_index_build_ms\": " + Json(single_ms);
    for (const BuildRow& row : build_rows) {
      json += ",\n  \"build.shards=" + std::to_string(row.shards) + "\": {";
      json += "\"partition_ms\": " + Json(row.partition_ms);
      json += ", \"max_shard_ms\": " + Json(row.max_shard_ms);
      json += ", \"critical_path_ms\": " + Json(row.critical_path_ms);
      json += ", \"modeled_" + std::to_string(cores) +
              "core_ms\": " + Json(row.modeled_ms);
      json += ", \"speedup_vs_single\": " + Json(row.speedup_vs_single) + "}";
    }
    for (const ThroughputRow& row : tp_rows) {
      json += ",\n  \"scatter.shards=" + std::to_string(row.shards) + "\": {";
      json += "\"fanout_per_query\": " + Json(row.fanout_per_query);
      json += ", \"virtual_qps\": " + Json(row.virtual_qps);
      json += ", \"wall_qps\": " + Json(row.wall_qps) + "}";
    }
    if (est_mean_error >= 0.0) {
      json += ",\n  \"estimator\": {\"budget\": " + std::to_string(budget);
      json += ", \"runs\": " + std::to_string(runs);
      json += ", \"count_rel_error\": " + Json(est_mean_error);
      json += ", \"mean_queries\": " + Json(est_mean_queries) + "}";
    }
    json += "\n }";
  }
  json += "\n}\n";

  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
