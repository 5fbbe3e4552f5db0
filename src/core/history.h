#ifndef LBSAGG_CORE_HISTORY_H_
#define LBSAGG_CORE_HISTORY_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "geometry/box.h"
#include "geometry/topk_region.h"
#include "geometry/vec2.h"
#include "spatial/kdtree.h"

namespace lbsagg {

// Store of every tuple location observed so far across queries (§3.2.2,
// "Leverage history on Voronoi-cell computation"). LBS tuples are static, so
// once a tuple's location is seen it can seed the initial Voronoi cell of
// every later computation and provide the upper bounds λ_h(t) used by the
// adaptive-h variance reduction (§3.2.3).
class History {
 public:
  History() = default;

  // Records a tuple location (idempotent).
  void Record(int id, const Vec2& pos);

  bool Known(int id) const { return by_id_.count(id) > 0; }
  const Vec2& Position(int id) const;
  size_t size() const { return entries_.size(); }

  // Every recorded (id, position) in insertion order — the checkpoint
  // serialization of the history. Replaying these through Record() on a
  // fresh History reproduces the full state bit-identically, kd-index
  // included: the rebuild points are a pure function of the insertion
  // sequence (size thresholds), and the tree build is deterministic.
  std::vector<std::pair<int, Vec2>> Entries() const;

  // Positions of the `limit` known tuples nearest to `p`, excluding
  // `excluded_id`, ascending by (squared distance, insertion order). This is
  // query-free offline work (free in the paper's §2.1 cost model) but it
  // seeds every cell computation and the adaptive-h decision of every
  // wanted returned tuple (a 2-NN search for the disc certificate, then the
  // 64-NN bound seed when the disc does not decide), so it sits on LR's hot
  // path. A kd-tree over the settled prefix of the history (rebuilt on
  // doubling) answers for the prefix; a linear pass over the recent tail
  // keeps only entries nearer than the tree's limit-th hit, and the two
  // sorted runs merge.
  std::vector<Vec2> NearestOtherPositions(const Vec2& p, int excluded_id,
                                          size_t limit) const;

  // The history seed S′ of a λ_h bound: at most this many nearest tuples.
  static constexpr size_t kBoundSeedSize = 64;

  // Upper bound λ_h on the area of the top-h Voronoi cell of the tuple at
  // `pos` (§3.2.3): the cell computed from a subset of the database always
  // contains the true cell, so its area from history is a valid bound. At
  // most `max_constraints` nearest history tuples are used (a looser bound
  // is still a bound). Only the area is computed (ComputeTopkRegionArea),
  // bit-identical to ComputeTopkRegion(...).area.
  double UpperBoundCellArea(int id, const Vec2& pos, const Box& box, int h,
                            size_t max_constraints = kBoundSeedSize) const;

  // Exactly UpperBoundCellArea(id, pos, box, 2) > lambda0, the one question
  // Algorithm 4 asks of λ_2. Two regions inside the top-2 cell settle "yes"
  // without building it, cheapest first (DESIGN §4.6): the open disc of
  // radius d(t, o₂)/2 around t, then t's top-1 cell over the seed without
  // its nearest tuple o₁. A region's area must clear λ0 by a margin that
  // covers the floating-point error of both areas, so the answer never
  // differs from the full λ_2, which decides every call neither region
  // settles.
  bool TopTwoCellAreaExceeds(int id, const Vec2& pos, const Box& box,
                             double lambda0) const;

 private:
  struct Entry {
    int id;
    Vec2 pos;
  };

  // Index entries_[0..indexed_) once the history is big enough for the
  // rebuild to pay for itself; rebuilt when entries_ doubles past it, so
  // total rebuild work stays O(n log n) over a run.
  static constexpr size_t kIndexThreshold = 128;
  void RebuildIndex();

  std::vector<Entry> entries_;
  std::unordered_map<int, Vec2> by_id_;
  std::unique_ptr<KdTree> index_;  // over entries_[0..indexed_)
  size_t indexed_ = 0;
};

}  // namespace lbsagg

#endif  // LBSAGG_CORE_HISTORY_H_
