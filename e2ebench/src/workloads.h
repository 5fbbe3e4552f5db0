#ifndef LBSAGG_E2EBENCH_WORKLOADS_H_
#define LBSAGG_E2EBENCH_WORKLOADS_H_

// The four end-to-end workloads (see ../README.md for why each exists):
//
//   lr_adaptive    LR-LBS-AGG, adaptive h, census sampler, 3 aggregates
//   lnr_localize   LNR-LBS-AGG with a position condition (§4.3 localization)
//   nno_durable    the NNO baseline writing a DurableEvidenceLog per run
//   service_fleet  an EstimationService hosting NNO sessions over a
//                  4-shard scatter-gather backend
//
// Every workload runs a closed loop on one process: a round waits for its
// own queries, and the fleet submits fixed batches of sessions. A run has
// three parts: set-up (repeated, median reported), a timed phase of
// `seconds`, and the correctness gate.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  // Small sizes, for the benchmark's own smoke test.
  bool smoke = false;
  // Scratch directory for WAL segments (must exist and be writable).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Run context (seed, nproc, build type, WAL filesystem, fsync mode, ...).
  std::vector<std::pair<std::string, std::string>> context;
  // Human-readable lines: gate verdicts, ratio bases, percentile ranks.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records one correctness-gate verdict; any failure fails the run.
  void Check(bool ok, const std::string& what);
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload and fills `report`. False when the name is unknown.
bool RunWorkload(const Options& options, Report* report);

}  // namespace e2e

#endif  // LBSAGG_E2EBENCH_WORKLOADS_H_
