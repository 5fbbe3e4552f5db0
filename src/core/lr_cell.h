#ifndef LBSAGG_CORE_LR_CELL_H_
#define LBSAGG_CORE_LR_CELL_H_

#include <cstdint>

#include "core/history.h"
#include "core/sampler.h"
#include "geometry/topk_region.h"
#include "lbs/client.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace lbsagg {

// Configuration of the Voronoi-cell computation over an LR interface. Each
// flag corresponds to one §3.2 error-reduction technique, so the Figure-20
// ablation can switch them on one at a time.
struct LrCellOptions {
  // §3.2.1 Fast-Init (Algorithm 2): start from four fake tuples forming a
  // small box around t instead of the whole region.
  bool fast_init = true;

  // Half-width of the fake box as a fraction of the box diagonal, used when
  // no history is available to guess the local tuple spacing.
  double fast_init_fraction = 0.01;

  // §3.2.2 Leverage-History (Algorithm 3): seed D' with the nearest
  // previously observed tuples.
  bool use_history = true;
  size_t history_neighbors = 32;

  // §3.2.4 Monte-Carlo upper/lower bounds: stop refining the cell once the
  // bounding polygon is tight and finish with unbiased geometric trials.
  bool monte_carlo = true;
  // Switch to Monte Carlo when a refinement round shrinks the region area
  // by less than this fraction.
  double mc_shrink_threshold = 0.05;
  int mc_min_rounds = 2;

  // Safety cap on refinement rounds (never reached in practice).
  int max_rounds = 256;

  // Metric plane for the estimator.lr_cell.* counters (refine_rounds,
  // mc_trials, queries); null lands on obs::MetricsRegistry::Default().
  // Estimators propagate their own registry here when this is unset.
  obs::MetricsRegistry* registry = nullptr;
};

// Computes (top-h) Voronoi cells of returned tuples through a
// location-returned interface, either exactly (Theorem 1 / Algorithm 1) or
// as an unbiased Monte-Carlo estimate of the inverse inclusion probability
// (§3.2.4).
class LrCellComputer {
 public:
  // All pointers must outlive the computer. `history` may be shared across
  // samples and estimators; every tuple location the computer observes is
  // recorded there.
  LrCellComputer(LrClient* client, History* history,
                 const QuerySampler* sampler, LrCellOptions options = {});

  struct Result {
    // Unbiased multiplier with E[inv_probability] = 1 / p(t), where
    // p(t) = ∫_{V_h(t)} f — the Horvitz–Thompson weight of the sample.
    double inv_probability = 0.0;
    // True when the cell was pinned down exactly (no Monte-Carlo step).
    bool exact = true;
    // Area of the final region: the cell itself when exact, otherwise the
    // bounding region V' the trials were drawn from.
    double region_area = 0.0;
    uint64_t queries = 0;
    int rounds = 0;
    int mc_trials = 0;
  };

  // Computes the inverse inclusion probability of tuple `id` located at
  // `pos` for the top-h cell. Requires 1 <= h <= client k (the confirmation
  // queries must be able to see the tuple at rank h).
  Result ComputeInverseProbability(int id, const Vec2& pos, int h, Rng& rng);

  // Runs the Theorem-1 loop to exact convergence and returns the cell.
  // Ignores the monte_carlo option.
  TopkRegion ComputeExactCell(int id, const Vec2& pos, int h);

  const LrCellOptions& options() const { return options_; }

 private:
  struct LoopOutcome {
    TopkRegion region;
    bool exact = false;
    uint64_t queries = 0;
    int rounds = 0;
    // Vertices where the tuple was confirmed within top-h (inside the cell).
    std::vector<Vec2> confirmed_in_cell;
  };

  // The shared Theorem-1 refinement loop. If `allow_early_stop`, returns a
  // non-exact outcome once the region stops shrinking fast.
  LoopOutcome RefineCell(int id, const Vec2& pos, int h, bool allow_early_stop);

  LrClient* client_;
  History* history_;
  const QuerySampler* sampler_;
  LrCellOptions options_;
  obs::CounterRef refine_rounds_counter_;
  obs::CounterRef mc_trials_counter_;
  obs::CounterRef queries_counter_;
};

}  // namespace lbsagg

#endif  // LBSAGG_CORE_LR_CELL_H_
