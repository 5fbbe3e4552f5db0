#include "lbs/dataset.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "geometry/loc_key.h"
#include "util/check.h"

namespace lbsagg {

AttrValue TupleValues::operator[](int col) const {
  return dataset_->Value(id_, col);
}

const std::string& TupleValues::String(int col) const {
  LBSAGG_CHECK_GE(col, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(col), dataset_->columns_.size());
  const auto* column =
      std::get_if<std::vector<std::string>>(&dataset_->columns_[col]);
  LBSAGG_CHECK(column != nullptr)
      << "column " << dataset_->schema_.name(col) << " is not a string";
  return (*column)[id_];
}

size_t TupleValues::size() const {
  return static_cast<size_t>(dataset_->schema().num_columns());
}

std::vector<AttrValue> TupleValues::ToVector() const {
  std::vector<AttrValue> out;
  out.reserve(size());
  for (const AttrValue& v : *this) out.push_back(v);
  return out;
}

Dataset::Dataset(Box box, Schema schema)
    : box_(box), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (int c = 0; c < schema_.num_columns(); ++c) {
    switch (schema_.type(c)) {
      case AttrType::kDouble:
        columns_.emplace_back(std::in_place_type<std::vector<double>>);
        break;
      case AttrType::kString:
        columns_.emplace_back(std::in_place_type<std::vector<std::string>>);
        break;
      case AttrType::kBool:
        columns_.emplace_back(std::in_place_type<std::vector<bool>>);
        break;
    }
  }
}

void Dataset::Reserve(size_t n) {
  positions_.reserve(n);
  for (Column& column : columns_) {
    std::visit([n](auto& values) { values.reserve(n); }, column);
  }
}

int Dataset::Add(const Vec2& pos, std::vector<AttrValue> values) {
  LBSAGG_CHECK_EQ(static_cast<int>(values.size()), schema_.num_columns());
  for (size_t c = 0; c < values.size(); ++c) {
    LBSAGG_CHECK(TypeOf(values[c]) == schema_.type(static_cast<int>(c)))
        << "type mismatch in column " << schema_.name(static_cast<int>(c));
  }
  for (size_t c = 0; c < values.size(); ++c) {
    std::visit(
        [&value = values[c]](auto& column) {
          using T = typename std::decay_t<decltype(column)>::value_type;
          column.push_back(std::get<T>(std::move(value)));
        },
        columns_[c]);
  }
  positions_.push_back(pos);
  return static_cast<int>(positions_.size()) - 1;
}

Tuple Dataset::tuple(int id) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), positions_.size());
  return Tuple{id, positions_[id], TupleValues(this, id)};
}

AttrValue Dataset::Value(int id, int col) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), positions_.size());
  LBSAGG_CHECK_GE(col, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(col), columns_.size());
  return std::visit(
      [id](const auto& column) { return AttrValue(column[id]); },
      columns_[col]);
}

int Dataset::JitterDuplicates(Rng& rng, double eps) {
  LBSAGG_CHECK_GT(eps, 0.0);
  // The eps-grid keys seen so far, in one power-of-two open-addressing
  // table at most half full (each tuple inserts one key). A slot holds
  // id + 1 (0 = empty) of the tuple that claimed the key; that tuple never
  // moves again, so its key is recomputed from its position.
  const size_t mask = std::bit_ceil(2 * positions_.size()) - 1;
  std::vector<uint32_t> slots(mask + 1, 0);
  int moved = 0;
  for (size_t id = 0; id < positions_.size(); ++id) {
    Vec2& pos = positions_[id];
    while (true) {
      const LocKey key = MakeLocKey(pos, eps);
      size_t i = LocKeyHash()(key) & mask;
      while (slots[i] != 0 &&
             MakeLocKey(positions_[slots[i] - 1], eps) != key) {
        i = (i + 1) & mask;
      }
      if (slots[i] == 0) {
        slots[i] = static_cast<uint32_t>(id) + 1;
        break;
      }
      const double angle = rng.Uniform(0.0, 2.0 * M_PI);
      pos = box_.Clamp(pos + Vec2{std::cos(angle), std::sin(angle)} *
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
  for (const Tuple& t : tuples()) {
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
  for (const Tuple& t : tuples()) {
    if (rng.Bernoulli(fraction)) out.Add(t.pos, t.values.ToVector());
  }
  return out;
}

}  // namespace lbsagg
