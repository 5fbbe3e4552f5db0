#ifndef LBSAGG_ENGINE_LNR_RESOLVER_H_
#define LBSAGG_ENGINE_LNR_RESOLVER_H_

// Acquisition layer for rank-only kNN interfaces: the sampling, cell
// inference, probability caching and localization core of Algorithm
// LNR-LBS-AGG (§4), carved out of the pre-engine LNR estimator. Emits
// kProbability observations (contribution = value / p), matching the
// monolith's floating-point arithmetic exactly.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/lnr_cell.h"
#include "core/localize.h"
#include "core/sampler.h"
#include "engine/cell_resolver.h"
#include "lbs/client.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace lbsagg {

// Per-run diagnostics of the rank-only estimator.
struct LnrAggDiagnostics {
  size_t rounds = 0;
  size_t cells_inferred = 0;  // cells actually computed via binary search
  size_t cache_hits = 0;      // samples served from the probability cache
};

// Configuration of Algorithm LNR-LBS-AGG (§4), read by the
// LnrCellResolver.
struct LnrAggOptions {
  // When true and the interface k > 1, each sample infers the top-k cell of
  // every returned tuple (§4.2); otherwise only the top-1 tuple's convex
  // cell is used.
  bool use_topk_cells = false;

  LnrCellOptions cell = {};
  LocalizeOptions localize = {};

  // §3.2.2 adapted to LNR: cache each tuple's inferred cell probability
  // across samples (the service is static, so it never changes). Disable
  // only for ablation.
  bool reuse_cell_probabilities = true;

  uint64_t seed = 3;

  // Metric plane for the estimator.lnr.* counters and the
  // estimator.lnr.ht_weight histogram; null lands on
  // obs::MetricsRegistry::Default(). Propagated into cell.registry and
  // localize.cell.registry (and from there into the binary searches) when
  // those are unset.
  obs::MetricsRegistry* registry = nullptr;

  // When set, each round emits an "estimator.round" span with nested
  // "estimator.cell" spans per cell inference.
  obs::Tracer* tracer = nullptr;
};

namespace engine {

class LnrCellResolver final : public CellResolver {
 public:
  LnrCellResolver(LnrClient* client, const QuerySampler* sampler,
                  LnrAggOptions options = {});

  // One sampling round: one random location; cells of the used tuples are
  // inferred from ranks alone. When the demand carries a position condition
  // the observed tuples are localized (§4.3) before being logged.
  void ResolveRound(const EvidenceDemand& demand, EvidenceStore* store) override;

  const LbsClient& client() const override { return *client_; }
  uint64_t queries_used() const override { return client_->queries_used(); }
  const char* name() const override { return "lnr"; }
  std::string diagnostics_json() const override;

  // Mutable state: the rng stream, both cell-probability caches (persisted
  // sorted by tuple id so the blob is process-independent), and the
  // diagnostics tallies.
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view blob) override;

  const LnrAggDiagnostics& diagnostics() const { return diagnostics_; }
  const LnrAggOptions& options() const { return options_; }

 private:
  // Logs one observation for a tuple with inferred cell probability p > 0,
  // localizing first when the demand needs locations.
  void EmitObservation(int id, int rank, const Vec2& q0, double probability,
                       uint64_t queries_before, const EvidenceDemand& demand,
                       EvidenceStore* store);

  LnrClient* client_;
  const QuerySampler* sampler_;
  LnrAggOptions options_;
  LnrCellComputer cell_computer_;
  Localizer localizer_;
  // §3.2.2 adapted to LNR: the service is static, so a tuple's inferred
  // cell probability never changes — computing it once per tuple makes
  // every later sample of the same tuple free. Big-cell (rural) tuples are
  // exactly the ones resampled most often.
  std::unordered_map<int, double> top1_probability_cache_;
  std::unordered_map<int, double> topk_probability_cache_;
  Rng rng_;
  LnrAggDiagnostics diagnostics_;
  obs::CounterRef cells_inferred_counter_;
  obs::CounterRef cache_hits_counter_;
  obs::HistogramRef ht_weight_hist_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_LNR_RESOLVER_H_
