#ifndef LBSAGG_ENGINE_NNO_RESOLVER_H_
#define LBSAGG_ENGINE_NNO_RESOLVER_H_

// Acquisition layer for the prior-work baseline LR-LBS-NNO (Dalvi et al.
// [10], §1.2, §6.1): top-1 sampling with a disc-growth + Monte-Carlo
// Voronoi-area estimate. The 1/p̂ weight is inherently biased — kept as the
// baseline the unbiased resolvers are compared against.

#include <cstdint>
#include <string>

#include "engine/cell_resolver.h"
#include "lbs/client.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace lbsagg {

// Configuration of the prior-work baseline. The knobs mirror the tunable
// parameters of [10]; benchmarks use settings tuned for its best behaviour,
// as the paper's experiments did.
struct NnoOptions {
  // Points probed on each ring while growing the candidate disc.
  int ring_points = 6;
  // Monte-Carlo membership samples used for the area estimate.
  int area_samples = 24;
  // Initial disc radius as a multiple of the query→tuple distance.
  double init_radius_factor = 2.0;
  // Maximum disc doublings.
  int max_growth_rounds = 12;
  uint64_t seed = 7;

  // Metric plane for the estimator.nno.* counters (rounds, growth_rounds,
  // mc_probes, mc_hits); null lands on obs::MetricsRegistry::Default().
  obs::MetricsRegistry* registry = nullptr;

  // When set, each round emits an "estimator.round" span with a nested
  // "estimator.cell" span around the cell-area estimate.
  obs::Tracer* tracer = nullptr;
};

// Per-run diagnostics of the probe baseline (new with the engine refactor —
// the pre-engine baseline only exposed these through the metric plane).
struct NnoDiagnostics {
  size_t rounds = 0;
  uint64_t growth_rounds = 0;  // disc doublings across all area estimates
  uint64_t mc_probes = 0;      // Monte-Carlo membership probes issued
  uint64_t mc_hits = 0;        // probes that still returned the tuple
};

namespace engine {

class NnoProbeResolver final : public CellResolver {
 public:
  NnoProbeResolver(LrClient* client, NnoOptions options = {});

  // One sampling round: uniform location, top-1 tuple, and — when some
  // registered aggregate wants the tuple — a probed Voronoi-area estimate.
  void ResolveRound(const EvidenceDemand& demand, EvidenceStore* store) override;

  const LbsClient& client() const override { return *client_; }
  uint64_t queries_used() const override { return client_->queries_used(); }
  const char* name() const override { return "nno"; }
  std::string diagnostics_json() const override;

  // Mutable state: the rng stream and the diagnostics tallies (the probe
  // baseline learns nothing across rounds).
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view blob) override;

  const NnoDiagnostics& diagnostics() const { return diagnostics_; }
  const NnoOptions& options() const { return options_; }

 private:
  // Monte-Carlo estimate of |V(t)| for the tuple at `pos`; consumes queries.
  double EstimateCellArea(int id, const Vec2& pos);

  LrClient* client_;
  NnoOptions options_;
  Rng rng_;
  NnoDiagnostics diagnostics_;
  obs::CounterRef rounds_counter_;
  obs::CounterRef growth_rounds_counter_;
  obs::CounterRef mc_probes_counter_;
  obs::CounterRef mc_hits_counter_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_NNO_RESOLVER_H_
