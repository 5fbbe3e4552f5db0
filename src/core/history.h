#ifndef LBSAGG_CORE_HISTORY_H_
#define LBSAGG_CORE_HISTORY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/box.h"
#include "geometry/topk_region.h"
#include "geometry/vec2.h"

namespace lbsagg {

// Store of every tuple location observed so far across queries (§3.2.2,
// "Leverage history on Voronoi-cell computation"). LBS tuples are static, so
// once a tuple's location is seen it can seed the initial Voronoi cell of
// every later computation and provide the upper bounds λ_h(t) used by the
// adaptive-h variance reduction (§3.2.3).
class History {
 public:
  History() = default;

  // Records a tuple location (idempotent: the first position wins).
  void Record(int id, const Vec2& pos);

  bool Known(int id) const { return Find(id) >= 0; }
  Vec2 Position(int id) const;
  size_t size() const { return nodes_.size(); }

  // Every recorded (id, position) in insertion order — the checkpoint
  // serialization of the history. Replaying these through Record() on a
  // fresh History reproduces the full state bit-identically, tree
  // included: insertion is deterministic.
  std::vector<std::pair<int, Vec2>> Entries() const;

  // Positions of the `limit` known tuples nearest to `p`, excluding
  // `excluded_id`, ascending by (squared distance, insertion order). This is
  // query-free offline work (free in the paper's §2.1 cost model) but it
  // seeds every cell computation and the adaptive-h decision of every
  // wanted returned tuple (a 2-NN search for the disc certificate, then the
  // 64-NN bound seed when the disc does not decide), so it sits on LR's hot
  // path. One stack walk of the insertion-built tree keeps the best `limit`
  // in a sorted insertion array; nothing is allocated but the result.
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
  // Entry i of the history is node i of a point k-d tree grown by
  // insertion, so the (squared distance, insertion order) tie-break is the
  // node index. A node splits its subtree on `axis` (0 = x, 1 = y, by
  // depth) at its own coordinate: child[0] holds the coordinates below it,
  // child[1] the rest; -1 = no child. 32 bytes.
  struct Node {
    Vec2 pos;
    int32_t id;
    int32_t axis;
    int32_t child[2];
  };

  // Node index of `id`, or -1.
  int32_t Find(int id) const;
  // Claims the first free slot along `node`'s id probe sequence.
  void InsertSlot(int32_t node);

  std::vector<Node> nodes_;
  // Open-addressing id table, a power of two at most half full (empty
  // before the first Record). A slot holds node index + 1 (0 = empty).
  std::vector<uint32_t> slots_;
  // Deepest node (root = 0): bounds the search's stack.
  int depth_ = 0;
};

}  // namespace lbsagg

#endif  // LBSAGG_CORE_HISTORY_H_
