#include "spatial/kdtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace lbsagg {

namespace {

// kNN candidate. `d2` is the squared distance: the shared candidate order
// of all SpatialIndex implementations is (squared distance, index) — see
// spatial_index.h — and sqrt is taken only for the candidates that survive.
struct Candidate {
  double d2;
  int32_t index;
};

inline bool Better(const Candidate& a, const Candidate& b) {
  return a.d2 < b.d2 || (a.d2 == b.d2 && a.index < b.index);
}

// Search stack entry: a pending subtree plus the per-axis offsets from the
// query to the subtree's region (0 when the query is inside its slab) and
// their squared sum. The offsets are exact coordinate differences and every
// point p inside satisfies |q.x - p.x| >= ox, |q.y - p.y| >= oy in exact
// double comparisons; x >= y implies fl(x*x) >= fl(y*y) and fl(a+b) is
// monotone for non-negative operands, so `bound2` never exceeds the d2 the
// leaf scan would compute — the pruning test `bound2 > screen` can never
// discard a candidate the search would accept, and results stay bit-exact.
struct PendingNode {
  int32_t node;
  double bound2;
  double ox;
  double oy;
};

// Balanced median splits with kLeafSize buckets keep the depth at
// ceil(log2(n / kLeafSize)) + 1, far below this for any addressable n.
constexpr int kMaxStack = 64;

// Reads point id j from a leaf block whose id section starts at `ids`
// (int32s packed into the doubles that follow the y coordinates). memcpy
// keeps the type-punned load aliasing-safe; it compiles to one 4-byte load.
inline int32_t LoadId(const double* ids, int j) {
  int32_t v;
  std::memcpy(&v, reinterpret_cast<const char*>(ids) + 4 * j, 4);
  return v;
}

}  // namespace

struct KdTree::Record {
  Vec2 p;
  int32_t id;
};

KdTree::KdTree(std::vector<Vec2> points) {
  const int n = static_cast<int>(points.size());
  size_ = static_cast<size_t>(n);
  if (n == 0) return;
  std::vector<Record> records(n);
  for (int i = 0; i < n; ++i) records[i] = {points[i], i};
  // The records carry every coordinate from here on; freeing the input
  // keeps the build's peak at records plus leaf blocks.
  std::vector<Vec2>().swap(points);
  nodes_.reserve(static_cast<size_t>(2 * n) / kLeafSize + 2);
  Build(records.data(), 0, n, 1);
  // The search stack holds at most one pending far-subtree per level plus
  // the root entry.
  LBSAGG_CHECK_LT(depth_ + 1, kMaxStack);
  // Lay out one interleaved block per leaf: count xs, count ys, then count
  // int32 ids packed into ceil(count/2) doubles, the whole block rounded up
  // to a whole number of cache lines so every bucket scan is one contiguous
  // run the hardware prefetcher streams.
  size_t total = 0;
  for (Node& nd : nodes_) {
    if (!(nd.tag & kLeafBit)) continue;
    const int count = static_cast<int>(nd.tag & ~kLeafBit);
    const size_t doubles = 2 * count + (count + 1) / 2;
    total += (doubles + 7) & ~size_t{7};
  }
  blob_.assign(total, 0.0);
  LBSAGG_CHECK_EQ(reinterpret_cast<uintptr_t>(blob_.data()) % 64, 0u);
  size_t off = 0;
  for (Node& nd : nodes_) {
    if (!(nd.tag & kLeafBit)) continue;
    const Record* leaf = records.data() + nd.right;  // set by Build
    const int count = static_cast<int>(nd.tag & ~kLeafBit);
    nd.right = static_cast<int32_t>(off);
    double* xb = blob_.data() + off;
    double* yb = xb + count;
    for (int j = 0; j < count; ++j) {
      xb[j] = leaf[j].p.x;
      yb[j] = leaf[j].p.y;
      std::memcpy(reinterpret_cast<char*>(yb + count) + 4 * j, &leaf[j].id,
                  4);
    }
    const size_t doubles = 2 * count + (count + 1) / 2;
    off += (doubles + 7) & ~size_t{7};
  }
}

void KdTree::EnableStats(obs::MetricsRegistry* registry) {
#ifndef LBSAGG_OBS_DISABLED
  searches_ = obs::GetCounter(registry, "spatial.kdtree.searches");
  nodes_visited_ = obs::GetCounter(registry, "spatial.kdtree.nodes_visited");
  leaves_scanned_ =
      obs::GetCounter(registry, "spatial.kdtree.leaves_scanned");
  points_tested_ = obs::GetCounter(registry, "spatial.kdtree.points_tested");
  stats_enabled_ = true;
#else
  (void)registry;
#endif
}

int KdTree::Build(Record* records, int lo, int hi, int depth) {
  const int me = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  depth_ = std::max(depth_, depth);
  if (hi - lo <= kLeafSize) {
    nodes_[me].right = lo;
    nodes_[me].tag = kLeafBit | static_cast<uint32_t>(hi - lo);
    return me;
  }
  // Split the wider extent of the bucket's bounding box: on skewed data this
  // keeps cells close to square, which is what makes the axis-gap pruning
  // bound tight.
  double min_x = records[lo].p.x, max_x = min_x;
  double min_y = records[lo].p.y, max_y = min_y;
  for (int i = lo + 1; i < hi; ++i) {
    const Vec2& p = records[i].p;
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const int axis = (max_x - min_x) >= (max_y - min_y) ? 0 : 1;
  const int mid = lo + (hi - lo) / 2;
  // The comparator tests the split coordinate only, with no id tie-break:
  // nth_element's moves depend on nothing but its comparisons' outcomes, so
  // records land exactly where an id permutation compared through the
  // points would, and the tree comes out node for node the same.
  if (axis == 0) {
    std::nth_element(records + lo, records + mid, records + hi,
                     [](const Record& a, const Record& b) {
                       return a.p.x < b.p.x;
                     });
  } else {
    std::nth_element(records + lo, records + mid, records + hi,
                     [](const Record& a, const Record& b) {
                       return a.p.y < b.p.y;
                     });
  }
  // Left = [lo, mid) holds coords <= split, right = [mid, hi) coords >=
  // split (the median itself goes right); both sides are non-empty because
  // hi - lo > kLeafSize.
  nodes_[me].split = axis == 0 ? records[mid].p.x : records[mid].p.y;
  nodes_[me].tag = static_cast<uint32_t>(axis);
  Build(records, lo, mid, depth + 1);
  nodes_[me].right = Build(records, mid, hi, depth + 1);
  return me;
}

// `screen` is re-read before every pruning test, so a visit that tightens it
// prunes the rest of the walk at once. Forced inline so the screen and the
// candidates stay in the calling search's locals.
template <typename Visit>
[[gnu::always_inline]] inline void KdTree::Walk(const Vec2& q,
                                                const double& screen,
                                                Visit&& visit) const {
  double d2s[kLeafSize];
  SearchTally tally;
  PendingNode stack[kMaxStack];
  int sp = 0;
  stack[sp++] = {0, 0.0, 0.0, 0.0};
  while (sp > 0) {
    const PendingNode top = stack[--sp];
    if (top.bound2 > screen) continue;
    int32_t node = top.node;
    const double ox = top.ox, oy = top.oy;
    while (!(nodes_[node].tag & kLeafBit)) {
      tally.Node();
      const Node& nd = nodes_[node];
      const double diff = (nd.tag == 0 ? q.x : q.y) - nd.split;
      const int32_t near = diff <= 0 ? node + 1 : nd.right;
      const int32_t far = diff <= 0 ? nd.right : node + 1;
      // Crossing to the far child replaces that axis' offset with the gap
      // to the split plane (regions nest, so it can only grow).
      const double fox = nd.tag == 0 ? std::abs(diff) : ox;
      const double foy = nd.tag == 0 ? oy : std::abs(diff);
      const double fbound2 = fox * fox + foy * foy;
      if (fbound2 <= screen) {
        stack[sp++] = {far, fbound2, fox, foy};
        __builtin_prefetch(&nodes_[far]);
      }
      node = near;
    }
    const Node& leaf = nodes_[node];
    const double* xb = blob_.data() + leaf.right;
    const int count = static_cast<int>(leaf.tag & ~kLeafBit);
    const double* yb = xb + count;
    tally.Leaf(count);
    for (int j = 0; j < count; ++j) {
      const double dx = xb[j] - q.x;
      const double dy = yb[j] - q.y;
      d2s[j] = dx * dx + dy * dy;
    }
    visit(d2s, yb + count, count);
  }
  FlushTally(tally);
}

template <typename Accept>
void KdTree::SearchSorted(const Vec2& q, int k, const Accept& accept,
                          double max_d2, std::vector<Neighbor>& out) const {
  // k <= kLeafSize: the best k candidates live in a sorted array maintained
  // by insertion — a few compares and a short move per improving candidate.
  // The screen is exact at every step (d2 of the current k-th best, or the
  // cap until k candidates are in), so pruning is as tight as possible and
  // the result needs no sort.
  Candidate best[kLeafSize];
  int m = 0;
  double worst2 = max_d2;
  Walk(q, worst2, [&](const double* d2s, const double* ids, int count) {
    for (int j = 0; j < count; ++j) {
      if (d2s[j] > worst2) continue;
      const int32_t id = LoadId(ids, j);
      if (!accept(id)) continue;
      const Candidate c{d2s[j], id};
      // Insert into the sorted prefix; when full, the last element falls
      // off. A candidate tying the current worst on (d2, index) lands at
      // pos == m and is dropped.
      int pos = m;
      while (pos > 0 && Better(c, best[pos - 1])) --pos;
      if (m < k) {
        ++m;
      } else if (pos == m) {
        continue;
      }
      for (int s = m - 1; s > pos; --s) best[s] = best[s - 1];
      best[pos] = c;
      if (m == k) worst2 = best[m - 1].d2;
    }
  });
  out.resize(m);
  for (int i = 0; i < m; ++i) {
    out[i] = {best[i].index, std::sqrt(best[i].d2), best[i].d2};
  }
}

template <typename Accept>
void KdTree::SearchBuffered(const Vec2& q, int k, const Accept& accept,
                            double max_d2, std::vector<Neighbor>& out) const {
  // Candidates are appended to a buffer guarded by a lazy screen `worst2`
  // (the k-th best d2 seen so far, the cap until k have been seen). When the
  // buffer reaches 2k entries an nth_element compaction keeps the k best
  // under the (d2, index) order and tightens the screen — O(1) amortized
  // per candidate, no per-candidate heap sifts. A dropped candidate is
  // worse than k candidates that stay, so it can never re-enter the final
  // top k: the result is exactly the k best, as with a strict heap.
  // The buffer lives on the stack for any k an LBS interface allows; an
  // oversized k falls back to one scratch allocation.
  const int cap = 2 * k;
  Candidate inline_buf[512];
  std::vector<Candidate> spill;
  Candidate* buf = inline_buf;
  if (cap > 512) {
    spill.resize(cap);
    buf = spill.data();
  }
  int m = 0;
  double worst2 = max_d2;
  bool compacted = false;
  const auto compact = [&] {
    std::nth_element(buf, buf + k - 1, buf + m, Better);
    m = k;
    worst2 = buf[k - 1].d2;
    compacted = true;
  };
  Walk(q, worst2, [&](const double* d2s, const double* ids, int count) {
    for (int j = 0; j < count; ++j) {
      if (d2s[j] > worst2) continue;
      const int32_t id = LoadId(ids, j);
      if (!accept(id)) continue;
      buf[m++] = {d2s[j], id};
      if (m == cap) compact();
    }
    // Eager first compaction: until k candidates have been seen the screen
    // is the cap (+inf when uncapped), so tighten it at the first
    // opportunity — typically right after the query's home leaf.
    if (!compacted && m >= k) compact();
  });
  if (m > k) compact();
  std::sort(buf, buf + m, Better);
  out.resize(m);
  for (int i = 0; i < m; ++i) {
    out[i] = {buf[i].index, std::sqrt(buf[i].d2), buf[i].d2};
  }
}

std::vector<Neighbor> KdTree::NearestFiltered(const Vec2& q, int k,
                                              const IndexFilter& filter,
                                              double max_d2) const {
  std::vector<Neighbor> out;
  if (k <= 0 || nodes_.empty()) return out;
  const auto search = [&](const auto& accept) {
    if (k <= kLeafSize) {
      SearchSorted(q, k, accept, max_d2, out);
    } else {
      SearchBuffered(q, k, accept, max_d2, out);
    }
  };
  if (filter) {
    search(filter);
  } else {
    search([](int) { return true; });
  }
  return out;
}

std::vector<Neighbor> KdTree::WithinRadius(const Vec2& q, double radius) const {
  LBSAGG_CHECK_GE(radius, 0.0);
  std::vector<Neighbor> result;
  if (nodes_.empty()) return result;
  const double r2 = radius * radius;
  Walk(q, r2, [&](const double* d2s, const double* ids, int count) {
    for (int j = 0; j < count; ++j) {
      if (d2s[j] <= r2) {
        result.push_back({LoadId(ids, j), std::sqrt(d2s[j]), d2s[j]});
      }
    }
  });
  return result;
}

}  // namespace lbsagg
