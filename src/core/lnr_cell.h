#ifndef LBSAGG_CORE_LNR_CELL_H_
#define LBSAGG_CORE_LNR_CELL_H_

#include <optional>
#include <vector>

#include "core/binary_search.h"
#include "geometry/polygon.h"
#include "geometry/topk_region.h"
#include "lbs/client.h"

namespace lbsagg {

// Result of an LNR cell inference.
struct LnrCellResult {
  // Top-1 mode: the convex polygon cell. Top-k mode: empty.
  ConvexPolygon cell;
  // Top-k mode: the (possibly concave) region. Top-1 mode: empty pieces.
  TopkRegion region;
  // The inferred edges, with the provenance §4.3 localization reads.
  std::vector<EdgeEstimate> edges;
  // Area of the inferred cell (either representation).
  double area = 0.0;
  uint64_t queries = 0;
  // False when the iteration cap was hit before closure (cell still usable,
  // possibly with extra ε error).
  bool converged = true;
};

struct LnrCellOptions {
  BinarySearchOptions search;
  int max_iterations = 200;
  int max_edges = 96;
  // Consecutive rounds in which neither the vertex tests nor fresh interior
  // probes find anything wrong before a top-k cell is declared converged.
  // More rounds shave residual over-approximation at extra query cost.
  int interior_quiet_rounds = 2;

  // Metric plane for the estimator.lnr_cell.* counters (cells, edges,
  // queries); null lands on obs::MetricsRegistry::Default(). Propagated
  // into search.registry when that is unset.
  obs::MetricsRegistry* registry = nullptr;
};

// Infers the Voronoi cell of a tuple through a rank-only (LNR) interface —
// the paper's §4 machinery.
//
//  * ComputeTop1Cell — Algorithm 6: the convex top-1 cell, discovered edge
//    by edge with the Appendix-A binary search and Theorem-1-style vertex
//    probing.
//  * ComputeTopkCell — §4.2: the (possibly concave) top-k cell. Internally
//    the cell is reconstructed as the rank-level set of the inferred
//    bisector arrangement, which keeps every intermediate region an *outer*
//    approximation (like the LR case) so concave notches can never be
//    silently lost; each failing vertex exposes a missing bisector via
//    Lemma 1 exactly as the paper argues.
class LnrCellComputer {
 public:
  LnrCellComputer(LnrClient* client, LnrCellOptions options = {});

  // Top-1 cell of tuple `id`; `q0` must be a location where `id` is the
  // top-1 result. Returns nullopt when q0 does not return `id` on top.
  std::optional<LnrCellResult> ComputeTop1Cell(int id, const Vec2& q0);

  // Top-k cell (k = client's k) of tuple `id`; `q0` must return `id`
  // somewhere in its top-k.
  std::optional<LnrCellResult> ComputeTopkCell(int id, const Vec2& q0);

  const LnrCellOptions& options() const { return options_; }

 private:
  LnrClient* client_;
  LnrCellOptions options_;
  obs::CounterRef cells_counter_;
  obs::CounterRef edges_counter_;
  obs::CounterRef queries_counter_;
};

}  // namespace lbsagg

#endif  // LBSAGG_CORE_LNR_CELL_H_
