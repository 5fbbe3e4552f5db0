#include "core/history.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace lbsagg {

void History::Record(int id, const Vec2& pos) {
  if (!by_id_.try_emplace(id, pos).second) return;
  entries_.push_back({id, pos});
  if (entries_.size() >= kIndexThreshold && entries_.size() >= 2 * indexed_) {
    RebuildIndex();
  }
}

void History::RebuildIndex() {
  std::vector<Vec2> pts;
  pts.reserve(entries_.size());
  for (const Entry& e : entries_) pts.push_back(e.pos);
  indexed_ = pts.size();
  index_ = std::make_unique<KdTree>(std::move(pts));
}

const Vec2& History::Position(int id) const {
  const auto it = by_id_.find(id);
  LBSAGG_CHECK(it != by_id_.end()) << "unknown tuple " << id;
  return it->second;
}

std::vector<std::pair<int, Vec2>> History::Entries() const {
  std::vector<std::pair<int, Vec2>> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.emplace_back(e.id, e.pos);
  return out;
}

std::vector<Vec2> History::NearestOtherPositions(const Vec2& p,
                                                 int excluded_id,
                                                 size_t limit) const {
  // Candidates ranked by the exact (squared distance, insertion order)
  // total order — the same order the kd-tree ranks by, so the indexed and
  // linear paths agree bit-for-bit.
  struct Candidate {
    double d2;
    size_t idx;
  };
  const auto better = [](const Candidate& a, const Candidate& b) {
    return a.d2 < b.d2 || (a.d2 == b.d2 && a.idx < b.idx);
  };
  std::vector<Candidate> cand;
  cand.reserve(indexed_ ? limit + (entries_.size() - indexed_)
                        : entries_.size());

  // Tail entries come after every indexed entry in insertion order, so a
  // tail entry no nearer than `limit` admissible indexed candidates loses
  // to all of them (ties included) and cannot make the cut.
  double tail_cutoff = std::numeric_limits<double>::infinity();
  if (index_) {
    // At most one entry is excluded, so limit+1 tree results always contain
    // the limit best admissible indexed entries. The tree returns them
    // ascending in the order above (the SpatialIndex contract).
    const auto tree = index_->Nearest(p, static_cast<int>(limit) + 1);
    for (const Neighbor& n : tree) {
      const size_t idx = static_cast<size_t>(n.index);
      if (entries_[idx].id == excluded_id) continue;
      cand.push_back({SquaredDistance(p, entries_[idx].pos), idx});
    }
    if (cand.size() >= limit) {
      tail_cutoff = limit > 0 ? cand[limit - 1].d2 : 0.0;
    }
  }
  const size_t from_tree = cand.size();
  for (size_t i = indexed_; i < entries_.size(); ++i) {
    if (entries_[i].id == excluded_id) continue;
    const double d2 = SquaredDistance(p, entries_[i].pos);
    if (d2 >= tail_cutoff) continue;
    cand.push_back({d2, i});
  }

  // Merge the sorted tree hits with the sorted tail survivors, up to
  // `limit`.
  const auto tail = cand.begin() + from_tree;
  std::sort(tail, cand.end(), better);
  const size_t keep = std::min(limit, cand.size());
  std::vector<Vec2> out;
  out.reserve(keep);
  for (auto a = cand.begin(), b = tail; out.size() < keep;) {
    const bool take_tail = a == tail || (b != cand.end() && better(*b, *a));
    out.push_back(entries_[(take_tail ? b++ : a++)->idx].pos);
  }
  return out;
}

namespace {

// λ_h over a given seed; an empty seed leaves the whole box.
double SeedCellArea(const Vec2& pos, const std::vector<Vec2>& seed,
                    const Box& box, int h) {
  if (seed.empty()) return box.Area();
  return ComputeTopkRegionArea(pos, seed, box, h);
}

// The double nearest π lies below π, so kPiBelow · r² never exceeds the
// area of a disc of radius r (up to the product's own rounding).
constexpr double kPiBelow = 3.141592653589793;

// How far a certificate's area must exceed λ0 before it may answer
// "λ_2 > λ0": more than the floating-point error of fp(λ_2) and of the
// certificate's own area together (DESIGN §4.6). Vertex rounding, dropped
// slivers and merged vertices scale with M², M ≥ 1 the box's largest
// coordinate (the clip loop's pruning scale); summing piece areas scales
// with the areas compared, which sit near λ0.
double CertificateMargin(const Box& box, double lambda0) {
  const double m = std::max({1.0, std::abs(box.lo.x), std::abs(box.lo.y),
                             std::abs(box.hi.x), std::abs(box.hi.y)});
  return 1e-6 * lambda0 + 1e-7 * m * m;
}

// Area of a region inside both the open disc of squared radius `r2` around
// `c` and the box: the disc itself when it lies inside the box, else its
// inscribed square clipped to the box.
double DiscInBoxArea(const Vec2& c, double r2, const Box& box) {
  const double r = std::sqrt(r2);
  if (c.x - r >= box.lo.x && c.x + r <= box.hi.x && c.y - r >= box.lo.y &&
      c.y + r <= box.hi.y) {
    return kPiBelow * r2;
  }
  const double s = r * M_SQRT1_2;
  const double w = std::min(c.x + s, box.hi.x) - std::max(c.x - s, box.lo.x);
  const double h = std::min(c.y + s, box.hi.y) - std::max(c.y - s, box.lo.y);
  return std::max(w, 0.0) * std::max(h, 0.0);
}

}  // namespace

double History::UpperBoundCellArea(int id, const Vec2& pos, const Box& box,
                                   int h, size_t max_constraints) const {
  return SeedCellArea(pos, NearestOtherPositions(pos, id, max_constraints),
                      box, h);
}

bool History::TopTwoCellAreaExceeds(int id, const Vec2& pos, const Box& box,
                                    double lambda0) const {
  // Tuples at t's own location bound nothing (SortedBisectors drops them),
  // so o₁ below is t's nearest tuple elsewhere.
  const auto elsewhere = [&pos](const Vec2& o) {
    return SquaredDistance(o, pos) > 0.0;
  };
  const double bar = lambda0 + CertificateMargin(box, lambda0);

  // Disc of radius r = d(t, o₂)/2: for q inside it and any o ≠ o₁,
  // d(q, o) ≥ d(t, o) − d(q, t) > 2r − r > d(q, t), so t ranks at most 2nd.
  const std::vector<Vec2> two = NearestOtherPositions(pos, id, 2);
  if (two.size() == 2 && elsewhere(two[0]) &&
      DiscInBoxArea(pos, 0.25 * SquaredDistance(pos, two[1]), box) > bar) {
    return true;
  }

  // Top-1 cell over S′ ∖ {o₁}: no tuple but o₁ is closer than t there.
  const std::vector<Vec2> seed =
      NearestOtherPositions(pos, id, kBoundSeedSize);
  if (!seed.empty()) {
    std::vector<Vec2> rest = seed;
    const auto o1 = std::find_if(rest.begin(), rest.end(), elsewhere);
    if (o1 != rest.end()) rest.erase(o1);
    if (ComputeTopkRegionArea(pos, rest, box, 1) > bar) return true;
  }
  return SeedCellArea(pos, seed, box, 2) > lambda0;
}

}  // namespace lbsagg
