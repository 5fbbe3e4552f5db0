// lbsagg_e2e — one workload of the end-to-end estimation benchmark.
//
//   lbsagg_e2e --workload lr_adaptive --seed 7 --seconds 10 --trace 0
//              [--smoke 1] [--work-dir DIR]
//
// Prints one JSON object on its last line: correct / attempted / failed,
// the metrics (end-to-end with --trace 0, per-layer with --trace 1), the
// run context, and human-readable notes (gate verdicts, ratio bases).
// e2ebench/run.py builds this binary and turns that line into the
// benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/json_writer.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lbsagg_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke 0|1] [--work-dir DIR]\nworkloads:");
  for (const std::string& name : e2e::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--smoke") {
      options.smoke = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (!(options.seconds > 0.0)) return Usage();

  e2e::Report report;
  if (!e2e::RunWorkload(options, &report)) return Usage();

  lbsagg::JsonWriter json;
  json.BeginObject()
      .KV("correct", report.correct)
      .KV("attempted", report.attempted)
      .KV("failed", report.failed)
      .Key("metrics")
      .BeginObject();
  for (const e2e::Metric& m : report.metrics) {
    // JsonWriter prints doubles with 6 significant digits; values keep all
    // of theirs.
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json.Key(m.name).BeginObject().Key("value").RawValue(value).KV("unit", m.unit).EndObject();
  }
  json.EndObject().Key("context").BeginObject();
  for (const auto& [key, value] : report.context) json.KV(key, value);
  json.EndObject().Key("notes").BeginArray();
  for (const std::string& note : report.notes) json.Value(note);
  json.EndArray().EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
