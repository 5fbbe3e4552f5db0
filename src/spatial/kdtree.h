#ifndef LBSAGG_SPATIAL_KDTREE_H_
#define LBSAGG_SPATIAL_KDTREE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "obs/obs.h"
#include "spatial/spatial_index.h"

namespace lbsagg {

// 2-D k-d tree with median splits. This is the spatial index behind the
// simulated LBS server: every kNN query the estimators issue is answered by
// this structure, so it must be fast (the paper's Google Maps experiments
// issue tens of thousands of queries per run; our benchmarks issue
// millions).
//
// Layout (DESIGN.md "Hot path & complexity"): the tree is immutable after
// construction and stored as a flat preorder node array — a node's left
// child is the next array slot, so the near-side descent that dominates
// every search walks contiguous memory. Each leaf owns one contiguous
// 64-byte-aligned block holding its points' x coordinates, y coordinates,
// and original indices back to back, so a bucket scan touches a single
// short run of cache lines the hardware prefetcher streams. Every search
// runs one iterative traversal (explicit stack, bounded by the balanced
// depth) and differs only in what it keeps of each leaf's candidates: a
// sorted insertion array for k <= 16, a 2k buffer compacted with
// nth_element for larger k, every point within the radius for
// WithinRadius. Both kNN stores start their screen at the caller's cap
// (NearestFiltered's max_d2) instead of +inf. Candidates live in stack
// buffers: no allocation happens per query beyond the result vector the
// interface returns.
//
// Results are exactly the k smallest within the cap under the (distance,
// index) total order, bit-identical to BruteForceIndex.
class KdTree : public SpatialIndex {
 public:
  // Builds the tree over `points` in O(n log n), partitioning one array of
  // (point, index) records in place; `points` is released once copied.
  explicit KdTree(std::vector<Vec2> points);

  size_t size() const override { return size_; }
  std::vector<Neighbor> NearestFiltered(
      const Vec2& q, int k, const IndexFilter& filter,
      double max_d2 = std::numeric_limits<double>::infinity()) const override;

  std::vector<Neighbor> WithinRadius(const Vec2& q,
                                     double radius) const override;

  // Maximum root-to-leaf depth (diagnostics; bounds the search stack).
  int depth() const { return depth_; }

  // Starts publishing per-search work counters (spatial.kdtree.searches /
  // nodes_visited / leaves_scanned / points_tested) to `registry` (null =
  // the process-wide default). Unlike the other layers this is opt-in, not
  // on-by-default: the tree sits on the single hottest loop, so searches
  // tally locally in registers and flush once per search — and only flush
  // at all after EnableStats. LbsServer forwards ServerOptions::
  // stats_registry here. Not thread-safe against in-flight searches; call
  // before sharing the tree.
  void EnableStats(obs::MetricsRegistry* registry);

 private:
  static constexpr int kLeafSize = 16;
  static constexpr uint32_t kLeafBit = 0x80000000u;

  // 16 bytes. Internal node: `split` is the splitting coordinate on axis
  // `tag` (0 = x, 1 = y); the left child ([coords <= split]) is the next
  // node in the array, the right child ([coords >= split]) is `right`.
  // Leaf node: tag = kLeafBit | count, `right` = the leaf's block offset
  // into `blob_` (in doubles): count x coords, then count y coords, then
  // count int32 ids packed into the following doubles.
  struct Node {
    double split = 0.0;
    int32_t right = -1;
    uint32_t tag = 0;
  };

  // A point and its index: Build partitions an array of these in place.
  struct Record;

  int Build(Record* records, int lo, int hi, int depth);

  // Per-search tally kept in locals (registers) and flushed to the metric
  // plane once per search; compiles to nothing under LBSAGG_OBS_DISABLED.
  struct SearchTally {
#ifndef LBSAGG_OBS_DISABLED
    uint32_t nodes = 0;
    uint32_t leaves = 0;
    uint32_t points = 0;
    void Node() { ++nodes; }
    void Leaf(int count) {
      ++leaves;
      points += static_cast<uint32_t>(count);
    }
#else
    void Node() {}
    void Leaf(int) {}
#endif
  };

  void FlushTally(const SearchTally& tally) const {
#ifndef LBSAGG_OBS_DISABLED
    if (!stats_enabled_) return;
    searches_.Add(1);
    nodes_visited_.Add(tally.nodes);
    leaves_scanned_.Add(tally.leaves);
    points_tested_.Add(tally.points);
#else
    (void)tally;
#endif
  }

  // The one stack walk behind every search: descends toward q, defers far
  // subtrees against `screen`, and hands each reached leaf's squared
  // distances and id block to `visit(d2s, ids, count)`, which may tighten
  // the screen.
  template <typename Visit>
  void Walk(const Vec2& q, const double& screen, Visit&& visit) const;

  // k <= kLeafSize: sorted insertion array, exact screen, no final sort.
  template <typename Accept>
  void SearchSorted(const Vec2& q, int k, const Accept& accept, double max_d2,
                    std::vector<Neighbor>& out) const;

  // k > kLeafSize: 2k buffer with nth_element compaction.
  template <typename Accept>
  void SearchBuffered(const Vec2& q, int k, const Accept& accept,
                      double max_d2, std::vector<Neighbor>& out) const;

  // Storage aligned to a 64-byte cache line.
  template <typename T>
  struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&) {}
    T* allocate(size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, size_t n) {
      ::operator delete(p, n * sizeof(T), kAlign);
    }
    friend bool operator==(const CacheLineAllocator&,
                           const CacheLineAllocator&) {
      return true;
    }
  };

  // Per-leaf interleaved point blocks (see Node). The base is 64-byte
  // aligned and every block spans whole cache lines, so every block starts
  // on a cache line and each bucket scan is one contiguous run of them.
  std::vector<double, CacheLineAllocator<double>> blob_;
  std::vector<Node> nodes_;
  size_t size_ = 0;
  int depth_ = 0;

  bool stats_enabled_ = false;
  obs::CounterRef searches_;
  obs::CounterRef nodes_visited_;
  obs::CounterRef leaves_scanned_;
  obs::CounterRef points_tested_;
};

}  // namespace lbsagg

#endif  // LBSAGG_SPATIAL_KDTREE_H_
