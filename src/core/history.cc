#include "core/history.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace lbsagg {

void History::Record(int id, const Vec2& pos) {
  auto [it, inserted] = by_id_.emplace(id, pos);
  if (!inserted) return;
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

double History::UpperBoundCellArea(int id, const Vec2& pos, const Box& box,
                                   int h, size_t max_constraints) const {
  const std::vector<Vec2> others =
      NearestOtherPositions(pos, id, max_constraints);
  if (others.empty()) return box.Area();
  return ComputeTopkRegionArea(pos, others, box, h);
}

}  // namespace lbsagg
