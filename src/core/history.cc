#include "core/history.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace lbsagg {

namespace {

// Fibonacci hashing: ids are dense small integers, and the multiply spreads
// runs of them over the table.
size_t IdHash(int id) {
  return static_cast<size_t>(
      (static_cast<uint64_t>(static_cast<uint32_t>(id)) *
       0x9e3779b97f4a7c15ull) >>
      32);
}

}  // namespace

int32_t History::Find(int id) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  for (size_t i = IdHash(id) & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const int32_t node = static_cast<int32_t>(slots_[i] - 1);
    if (nodes_[node].id == id) return node;
  }
  return -1;
}

void History::InsertSlot(int32_t node) {
  const size_t mask = slots_.size() - 1;
  size_t i = IdHash(nodes_[node].id) & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<uint32_t>(node) + 1;
}

void History::Record(int id, const Vec2& pos) {
  if (Find(id) >= 0) return;
  const int32_t me = static_cast<int32_t>(nodes_.size());
  // Descend to the empty child slot the new point falls into; it becomes
  // that child, splitting on the other axis from its parent.
  int depth = 0;
  int32_t axis = 0;
  for (int32_t at = me > 0 ? 0 : -1; at >= 0; ++depth) {
    Node& n = nodes_[at];
    const int side = (n.axis == 0 ? pos.x < n.pos.x : pos.y < n.pos.y) ? 0 : 1;
    axis = 1 - n.axis;
    at = n.child[side];
    if (at < 0) n.child[side] = me;
  }
  nodes_.push_back({pos, id, axis, {-1, -1}});
  depth_ = std::max(depth_, depth);
  if (2 * nodes_.size() > slots_.size()) {
    // Double the table and re-insert every node, the new one included.
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0);
    for (int32_t node = 0; node <= me; ++node) InsertSlot(node);
  } else {
    InsertSlot(me);
  }
}

Vec2 History::Position(int id) const {
  const int32_t node = Find(id);
  LBSAGG_CHECK(node >= 0) << "unknown tuple " << id;
  return nodes_[node].pos;
}

std::vector<std::pair<int, Vec2>> History::Entries() const {
  std::vector<std::pair<int, Vec2>> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) out.emplace_back(n.id, n.pos);
  return out;
}

std::vector<Vec2> History::NearestOtherPositions(const Vec2& p,
                                                 int excluded_id,
                                                 size_t limit) const {
  std::vector<Vec2> out;
  limit = std::min(limit, nodes_.size());
  if (limit == 0) return out;
  // The best `limit` candidates, sorted by (squared distance, node index),
  // on the stack for every limit the estimators ask for.
  struct Candidate {
    double d2;
    int32_t node;
  };
  const auto better = [](const Candidate& a, const Candidate& b) {
    return a.d2 < b.d2 || (a.d2 == b.d2 && a.node < b.node);
  };
  constexpr size_t kInlineLimit = kBoundSeedSize;
  Candidate inline_best[kInlineLimit];
  std::vector<Candidate> best_spill;
  Candidate* best = inline_best;
  if (limit > kInlineLimit) {
    best_spill.resize(limit);
    best = best_spill.data();
  }
  // A pending subtree with the per-axis offsets from p to its region and
  // their squared sum, as in KdTree's walk: every point inside lies at
  // least that far in exact double comparisons, so pruning on `bound2 >
  // worst2` never drops a candidate the scan would keep. The entries on
  // the stack lie at strictly increasing depths, so depth_ + 1 of them
  // always fit; only a tree deeper than the inline stack spills.
  struct Pending {
    int32_t node;
    double bound2;
    double ox;
    double oy;
  };
  constexpr int kInlineStack = 64;
  Pending inline_stack[kInlineStack];
  std::vector<Pending> stack_spill;
  Pending* stack = inline_stack;
  if (depth_ + 1 > kInlineStack) {
    stack_spill.resize(static_cast<size_t>(depth_) + 1);
    stack = stack_spill.data();
  }

  size_t m = 0;
  double worst2 = std::numeric_limits<double>::infinity();
  int sp = 0;
  stack[sp++] = {0, 0.0, 0.0, 0.0};
  while (sp > 0) {
    const Pending top = stack[--sp];
    if (top.bound2 > worst2) continue;
    const double ox = top.ox, oy = top.oy;
    for (int32_t at = top.node; at >= 0;) {
      const Node& n = nodes_[at];
      const double d2 = SquaredDistance(p, n.pos);
      if (d2 <= worst2 && n.id != excluded_id) {
        // Insert into the sorted prefix; when full, the last one falls off.
        // A candidate no better than a full array's worst lands at pos == m
        // and is dropped.
        const Candidate c{d2, at};
        size_t pos = m;
        while (pos > 0 && better(c, best[pos - 1])) --pos;
        if (pos < m || m < limit) {
          if (m < limit) ++m;
          for (size_t s = m - 1; s > pos; --s) best[s] = best[s - 1];
          best[pos] = c;
          if (m == limit) worst2 = best[m - 1].d2;
        }
      }
      const double diff = n.axis == 0 ? p.x - n.pos.x : p.y - n.pos.y;
      const int near = diff < 0 ? 0 : 1;
      const int32_t far = n.child[1 - near];
      if (far >= 0) {
        // Crossing to the far child replaces that axis' offset with the
        // gap to the split coordinate (regions nest, so it only grows).
        const double fox = n.axis == 0 ? std::abs(diff) : ox;
        const double foy = n.axis == 0 ? oy : std::abs(diff);
        const double fbound2 = fox * fox + foy * foy;
        if (fbound2 <= worst2) stack[sp++] = {far, fbound2, fox, foy};
      }
      at = n.child[near];
    }
  }
  out.reserve(m);
  for (size_t i = 0; i < m; ++i) out.push_back(nodes_[best[i].node].pos);
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
  // o₁ leaves the seed for this cell and returns to its slot for λ_2, so
  // the seed is never copied.
  std::vector<Vec2> seed = NearestOtherPositions(pos, id, kBoundSeedSize);
  if (!seed.empty()) {
    const auto o1 = std::find_if(seed.begin(), seed.end(), elsewhere);
    const bool has_o1 = o1 != seed.end();
    const Vec2 o1_pos = has_o1 ? *o1 : Vec2{};
    const auto slot = has_o1 ? seed.erase(o1) : seed.end();
    if (ComputeTopkRegionArea(pos, seed, box, 1) > bar) return true;
    if (has_o1) seed.insert(slot, o1_pos);
  }
  return SeedCellArea(pos, seed, box, 2) > lambda0;
}

}  // namespace lbsagg
