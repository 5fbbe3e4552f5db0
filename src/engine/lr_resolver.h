#ifndef LBSAGG_ENGINE_LR_RESOLVER_H_
#define LBSAGG_ENGINE_LR_RESOLVER_H_

// Acquisition layer for location-returned kNN interfaces: the sampling,
// adaptive-h, and cell-computation core of Algorithm LR-LBS-AGG (§3.3),
// carved out of the pre-engine LR estimator. The HT accumulation moved to
// engine::AggregateQuery; this class owns everything that costs interface
// queries or consumes randomness, and its query/rng streams are bit-for-bit
// those of the monolith it replaces.

#include <cstdint>
#include <string>

#include "core/history.h"
#include "core/lr_cell.h"
#include "core/sampler.h"
#include "engine/cell_resolver.h"
#include "lbs/client.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace lbsagg {

// Per-estimator run diagnostics — what an operator needs to tune λ0, the
// Monte-Carlo thresholds and the budget.
struct LrAggDiagnostics {
  size_t rounds = 0;            // sampling rounds completed
  size_t cells_exact = 0;       // cells pinned down exactly (Theorem 1)
  size_t cells_monte_carlo = 0; // cells finished by §3.2.4 trials
  size_t h_used[8] = {};        // histogram of the h chosen per contribution
                                // (index min(h,7))
  uint64_t cell_queries = 0;    // queries spent inside cell computations
};

// Configuration of Algorithm LR-LBS-AGG (Algorithm 5), read by the
// LrCellResolver.
struct LrAggOptions {
  // §3.2.3 adaptive choice of h per returned tuple (Algorithm 4). When
  // false, a fixed h = min(fixed_h, k) is used for every tuple.
  bool adaptive_h = true;
  int fixed_h = 1;

  // λ0 threshold of Algorithm 4 as a fraction of the bounding-box area: a
  // top-h cell whose upper-bound area exceeds λ0 is not worth the queries.
  // The default corresponds to a few times the mean top-1 cell at the
  // benchmark scales (tuned like the paper tuned its λ0).
  double lambda0_fraction = 2e-5;

  // Cell computation flags (§3.2.1, §3.2.2, §3.2.4).
  LrCellOptions cell = {};

  uint64_t seed = 1;

  // Metric plane for the estimator.lr.* counters and the estimator.lr.ht_weight
  // histogram; null lands on obs::MetricsRegistry::Default(). Propagated into
  // cell.registry when that is unset, so one pointer instruments the whole
  // estimator stack.
  obs::MetricsRegistry* registry = nullptr;

  // When set, each round emits an "estimator.round" span with nested
  // "estimator.cell" spans per Horvitz–Thompson cell computation.
  obs::Tracer* tracer = nullptr;
};

namespace engine {

class LrCellResolver final : public CellResolver {
 public:
  // All pointers must outlive the resolver.
  LrCellResolver(LrClient* client, const QuerySampler* sampler,
                 LrAggOptions options = {});

  // One sampling round: one random query location; a cell computation (and
  // one observation) for each returned tuple within its chosen h that some
  // registered aggregate wants.
  void ResolveRound(const EvidenceDemand& demand, EvidenceStore* store) override;

  const LbsClient& client() const override { return *client_; }
  uint64_t queries_used() const override { return client_->queries_used(); }
  const char* name() const override { return "lr"; }
  std::string diagnostics_json() const override;

  // Mutable state: the rng stream, the location history (with its kd index
  // implied by the insertion sequence), and the diagnostics tallies.
  void SaveState(std::string* out) const override;
  bool RestoreState(std::string_view blob) override;

  const LrAggDiagnostics& diagnostics() const { return diagnostics_; }
  History& history() { return history_; }
  const LrAggOptions& options() const { return options_; }

 private:
  // Algorithm 4: the largest h ∈ [2, k] with λ_h(t) ≤ λ0, else 1.
  int ChooseH(int id, const Vec2& pos);

  LrClient* client_;
  const QuerySampler* sampler_;
  LrAggOptions options_;
  History history_;
  LrCellComputer cell_computer_;
  Rng rng_;
  LrAggDiagnostics diagnostics_;
  obs::CounterRef cells_exact_counter_;
  obs::CounterRef cells_mc_counter_;
  obs::HistogramRef ht_weight_hist_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_LR_RESOLVER_H_
