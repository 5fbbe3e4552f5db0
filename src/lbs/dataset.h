#ifndef LBSAGG_LBS_DATASET_H_
#define LBSAGG_LBS_DATASET_H_

#include <functional>
#include <string>
#include <vector>

#include "geometry/box.h"
#include "geometry/vec2.h"
#include "lbs/attribute.h"
#include "util/rng.h"

namespace lbsagg {

// One database tuple: a location plus attribute values aligned with the
// dataset schema. The id equals the tuple's index in the dataset and is what
// LNR interfaces expose instead of the location.
struct Tuple {
  int id = -1;
  Vec2 pos;
  std::vector<AttrValue> values;
};

// Predicate over a tuple — the selection condition `Cond` of §2.3. The
// library supports any condition evaluable on a single tuple.
using TupleFilter = std::function<bool(const Tuple&)>;

// The hidden database D: tuples with locations inside a bounding region.
// Only the LbsServer sees a Dataset directly; estimation algorithms go
// through the restricted client interfaces.
class Dataset {
 public:
  // Creates an empty dataset over the region `box` with the given schema.
  Dataset(Box box, Schema schema);

  // Appends a tuple at `pos` with values matching the schema (count and
  // types are checked). Returns the assigned id.
  int Add(const Vec2& pos, std::vector<AttrValue> values);

  const Box& box() const { return box_; }
  const Schema& schema() const { return schema_; }
  size_t size() const { return tuples_.size(); }
  const Tuple& tuple(int id) const;
  const std::vector<Tuple>& tuples() const { return tuples_; }

  // Positions of all tuples, in id order.
  std::vector<Vec2> Positions() const;

  // Enforces general position (§2.2). Visits tuples in id order; a tuple
  // whose position lands on an eps-grid key (MakeLocKey) an earlier tuple
  // holds moves 2–3 eps in a random direction, clamped into the box, until
  // its key is free. Returns the number of moves.
  int JitterDuplicates(Rng& rng, double eps);

  // Ground-truth aggregate: sum over tuples passing `cond` (null = all) of
  // `value(t)`. COUNT uses value ≡ 1.
  double GroundTruthSum(const TupleFilter& cond,
                        const std::function<double(const Tuple&)>& value) const;

  // Ground-truth COUNT of tuples passing `cond` (null = all).
  double GroundTruthCount(const TupleFilter& cond = nullptr) const;

  // New dataset holding a uniform random subset with `fraction` of the
  // tuples (ids re-assigned). Used by the Figure-18 database-size sweep.
  Dataset Subsample(double fraction, Rng& rng) const;

 private:
  Box box_;
  Schema schema_;
  std::vector<Tuple> tuples_;
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_DATASET_H_
