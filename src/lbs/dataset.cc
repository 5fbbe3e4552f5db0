#include "lbs/dataset.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "geometry/loc_key.h"
#include "util/check.h"

namespace lbsagg {

Dataset::Dataset(Box box, Schema schema)
    : box_(box), schema_(std::move(schema)) {}

int Dataset::Add(const Vec2& pos, std::vector<AttrValue> values) {
  LBSAGG_CHECK_EQ(static_cast<int>(values.size()), schema_.num_columns());
  for (size_t c = 0; c < values.size(); ++c) {
    LBSAGG_CHECK(TypeOf(values[c]) == schema_.type(static_cast<int>(c)))
        << "type mismatch in column " << schema_.name(static_cast<int>(c));
  }
  Tuple t;
  t.id = static_cast<int>(tuples_.size());
  t.pos = pos;
  t.values = std::move(values);
  tuples_.push_back(std::move(t));
  return tuples_.back().id;
}

const Tuple& Dataset::tuple(int id) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), tuples_.size());
  return tuples_[id];
}

std::vector<Vec2> Dataset::Positions() const {
  std::vector<Vec2> out;
  out.reserve(tuples_.size());
  for (const Tuple& t : tuples_) out.push_back(t.pos);
  return out;
}

int Dataset::JitterDuplicates(Rng& rng, double eps) {
  LBSAGG_CHECK_GT(eps, 0.0);
  // The eps-grid keys seen so far, in one power-of-two open-addressing
  // table at most half full (each tuple inserts one key). A slot holds
  // id + 1 (0 = empty) of the tuple that claimed the key; that tuple never
  // moves again, so its key is recomputed from its position.
  const size_t mask = std::bit_ceil(2 * tuples_.size()) - 1;
  std::vector<uint32_t> slots(mask + 1, 0);
  int moved = 0;
  for (Tuple& t : tuples_) {
    while (true) {
      const LocKey key = MakeLocKey(t.pos, eps);
      size_t i = LocKeyHash()(key) & mask;
      while (slots[i] != 0 &&
             MakeLocKey(tuples_[slots[i] - 1].pos, eps) != key) {
        i = (i + 1) & mask;
      }
      if (slots[i] == 0) {
        slots[i] = static_cast<uint32_t>(t.id) + 1;
        break;
      }
      const double angle = rng.Uniform(0.0, 2.0 * M_PI);
      t.pos = box_.Clamp(t.pos + Vec2{std::cos(angle), std::sin(angle)} *
                                     (eps * (2.0 + rng.Uniform01())));
      ++moved;
    }
  }
  return moved;
}

double Dataset::GroundTruthSum(
    const TupleFilter& cond,
    const std::function<double(const Tuple&)>& value) const {
  LBSAGG_CHECK(value != nullptr);
  double total = 0.0;
  for (const Tuple& t : tuples_) {
    if (cond && !cond(t)) continue;
    total += value(t);
  }
  return total;
}

double Dataset::GroundTruthCount(const TupleFilter& cond) const {
  return GroundTruthSum(cond, [](const Tuple&) { return 1.0; });
}

Dataset Dataset::Subsample(double fraction, Rng& rng) const {
  LBSAGG_CHECK_GT(fraction, 0.0);
  LBSAGG_CHECK_LE(fraction, 1.0);
  Dataset out(box_, schema_);
  for (const Tuple& t : tuples_) {
    if (rng.Bernoulli(fraction)) out.Add(t.pos, t.values);
  }
  return out;
}

}  // namespace lbsagg
