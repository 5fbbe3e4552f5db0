#include "core/lr3_agg.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/check.h"

namespace lbsagg {

Lr3AggEstimator::Lr3AggEstimator(Lr3Client* client, Lr3AggOptions options)
    : client_(client), options_(options), rng_(options.seed) {
  LBSAGG_CHECK(client_ != nullptr);
  LBSAGG_CHECK_GE(options_.refine_rounds, 1);
}

double Lr3AggEstimator::InverseProbability(int id, const Vec3& pos) {
  const Box3& box = client_->region();
  std::vector<Halfspace3> planes = BoxHalfspaces(box);
  std::unordered_set<int> known = {id};

  // Quantized keys of already-queried vertices.
  struct Key {
    int64_t x, y, z;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<int64_t>()(k.x * 0x9e3779b97f4a7c15ll ^ (k.y << 20) ^
                                  k.z);
    }
  };
  const double grid =
      1e-9 * std::max({1.0, std::abs(box.hi.x), std::abs(box.hi.y),
                       std::abs(box.hi.z)});
  std::unordered_set<Key, KeyHash> queried;
  auto key_of = [&](const Vec3& p) {
    return Key{static_cast<int64_t>(std::llround(p.x / grid)),
               static_cast<int64_t>(std::llround(p.y / grid)),
               static_cast<int64_t>(std::llround(p.z / grid))};
  };

  // Theorem-1 refinement: query cell-from-subset vertices; every returned
  // unseen tuple adds a bisector plane.
  bool exact = false;
  for (int round = 0; round < options_.refine_rounds; ++round) {
    std::vector<Vec3> vertices = EnumeratePolytopeVertices(planes);
    LBSAGG_CHECK(!vertices.empty()) << "cell polytope degenerate";
    // Nearest candidate vertices first: they expose the tuples that shape
    // the cell with the fewest queries.
    std::sort(vertices.begin(), vertices.end(),
              [&](const Vec3& a, const Vec3& b) {
                return SquaredDistance(a, pos) < SquaredDistance(b, pos);
              });
    bool new_tuple = false;
    int queries_this_round = 0;
    for (const Vec3& v : vertices) {
      if (queries_this_round >= options_.max_vertex_queries_per_round) break;
      if (!queried.insert(key_of(v)).second) continue;
      ++queries_this_round;
      for (const Lr3Client::Item& item : client_->Query(v)) {
        if (known.insert(item.id).second) {
          planes.push_back(Halfspace3::Closer(pos, item.position));
          new_tuple = true;
        }
      }
    }
    if (!new_tuple && queries_this_round == 0) {
      exact = true;  // every vertex already queried, none exposed a tuple
      break;
    }
    if (!new_tuple) {
      exact = true;  // Theorem 1: the polytope is the true cell
      break;
    }
  }

  // §3.2.4 Monte-Carlo trials from the vertex bounding box, whose volume is
  // known exactly. E[#trials] = vol(bbox)/vol(cell).
  const std::vector<Vec3> vertices = EnumeratePolytopeVertices(planes);
  LBSAGG_CHECK(!vertices.empty());
  const Box3 bbox = BoundingBox3(vertices);
  const double bbox_volume = bbox.Volume();
  LBSAGG_CHECK_GT(bbox_volume, 0.0);

  auto one_trial_run = [&]() {
    int trials = 0;
    while (true) {
      ++trials;
      LBSAGG_CHECK_LE(trials, 1000000);
      const Vec3 x = bbox.SamplePoint(rng_);
      if (!PolytopeContains(planes, x)) continue;  // certainly outside
      if (exact) break;  // the polytope IS the cell: free hit
      const std::vector<Lr3Client::Item> items = client_->Query(x);
      if (!items.empty() && items.front().id == id) break;
      for (const Lr3Client::Item& item : items) {
        // Opportunistic refinement costs nothing extra.
        if (known.insert(item.id).second) {
          planes.push_back(Halfspace3::Closer(pos, item.position));
        }
      }
    }
    return trials;
  };

  double mean_trials = 0.0;
  // When the cell is exact, trials are query-free: average many for a lower
  // variance (still unbiased — each r is an independent geometric draw).
  const int repeats = exact ? 64 : 1;
  for (int rep = 0; rep < repeats; ++rep) {
    mean_trials += static_cast<double>(one_trial_run()) / repeats;
  }
  return mean_trials * client_->region().Volume() / bbox_volume;
}

void Lr3AggEstimator::Step() {
  const Vec3 q = client_->region().SamplePoint(rng_);
  const std::vector<Lr3Client::Item> items = client_->Query(q);
  double contribution = 0.0;
  if (!items.empty()) {
    const Lr3Client::Item& top = items.front();
    contribution =
        client_->Value(top.id) * InverseProbability(top.id, top.position);
  }
  stats_.Add(contribution);
  trace_.push_back(
      {client_->queries_used(), Estimate(), ConfidenceHalfWidth()});
}

}  // namespace lbsagg
