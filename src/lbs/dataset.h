#ifndef LBSAGG_LBS_DATASET_H_
#define LBSAGG_LBS_DATASET_H_

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "geometry/box.h"
#include "geometry/vec2.h"
#include "lbs/attribute.h"
#include "util/rng.h"

namespace lbsagg {

class Dataset;

// Forward iteration over a small indexed view whose operator[] builds each
// element by value (the tuples of a dataset, the values of a tuple).
template <typename View>
class ViewIterator {
 public:
  ViewIterator(View view, int i) : view_(view), i_(i) {}
  auto operator*() const { return view_[i_]; }
  ViewIterator& operator++() {
    ++i_;
    return *this;
  }
  bool operator==(const ViewIterator& other) const { return i_ == other.i_; }

 private:
  View view_;
  int i_;
};

// The attribute values of one tuple, read from the dataset's typed columns:
// values[col] builds that column's AttrValue.
class TupleValues {
 public:
  using const_iterator = ViewIterator<TupleValues>;

  AttrValue operator[](int col) const;
  // String column `col`'s value in place, with no copy: the selection
  // filters compare names this way on every candidate a server tests.
  const std::string& String(int col) const;
  size_t size() const;
  const_iterator begin() const { return {*this, 0}; }
  const_iterator end() const { return {*this, static_cast<int>(size())}; }
  std::vector<AttrValue> ToVector() const;

  friend bool operator==(const TupleValues& a, const TupleValues& b) {
    return a.ToVector() == b.ToVector();
  }

 private:
  friend class Dataset;  // the one builder, for a checked id
  TupleValues(const Dataset* dataset, int id) : dataset_(dataset), id_(id) {}

  const Dataset* dataset_;
  int id_;
};

// One database tuple: a location plus attribute values aligned with the
// dataset schema. The id equals the tuple's index in the dataset and is what
// LNR interfaces expose instead of the location. A view the dataset builds
// on demand: `pos` is copied when it is built, and `values` reads the
// dataset's columns, so the view must not outlive the dataset.
struct Tuple {
  int id = -1;
  Vec2 pos;
  TupleValues values;
};

// Predicate over a tuple — the selection condition `Cond` of §2.3. The
// library supports any condition evaluable on a single tuple.
using TupleFilter = std::function<bool(const Tuple&)>;

// The hidden database D: tuples with locations inside a bounding region.
// Only the LbsServer sees a Dataset directly; estimation algorithms go
// through the restricted client interfaces.
//
// Storage is columnar (DESIGN §2): every position in one vector and each
// attribute column in one vector of its type, so a tuple owns no heap
// block (a string longer than the small-string buffer keeps its own).
class Dataset {
 public:
  // The tuples in id order, each built on dereference.
  class TupleRange {
   public:
    using const_iterator = ViewIterator<TupleRange>;

    explicit TupleRange(const Dataset* dataset) : dataset_(dataset) {}
    Tuple operator[](int id) const { return dataset_->tuple(id); }
    size_t size() const { return dataset_->size(); }
    const_iterator begin() const { return {*this, 0}; }
    const_iterator end() const { return {*this, static_cast<int>(size())}; }

   private:
    const Dataset* dataset_;
  };

  // Creates an empty dataset over the region `box` with the given schema.
  Dataset(Box box, Schema schema);

  // Reserves room for `n` tuples in the position and column vectors, so
  // adding them grows nothing.
  void Reserve(size_t n);

  // Appends a tuple at `pos` with values matching the schema (count and
  // types are checked). Returns the assigned id.
  int Add(const Vec2& pos, std::vector<AttrValue> values);

  const Box& box() const { return box_; }
  const Schema& schema() const { return schema_; }
  size_t size() const { return positions_.size(); }
  Tuple tuple(int id) const;
  TupleRange tuples() const { return TupleRange(this); }

  // Column `col`'s value for tuple `id`.
  AttrValue Value(int id, int col) const;

  // Positions of all tuples, in id order.
  const std::vector<Vec2>& Positions() const { return positions_; }

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
  friend class TupleValues;

  // One attribute column, its values in id order; the alternative follows
  // the schema type (AttrValue's order: double, string, bool).
  using Column = std::variant<std::vector<double>, std::vector<std::string>,
                              std::vector<bool>>;

  Box box_;
  Schema schema_;
  std::vector<Vec2> positions_;
  std::vector<Column> columns_;
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_DATASET_H_
