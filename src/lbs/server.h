#ifndef LBSAGG_LBS_SERVER_H_
#define LBSAGG_LBS_SERVER_H_

#include <limits>
#include <string>
#include <vector>

#include <memory>

#include "lbs/dataset.h"
#include "spatial/backend.h"
#include "spatial/spatial_index.h"

namespace lbsagg {

// How the server ranks candidate tuples (§5.3).
enum class RankingMode {
  // Ascending Euclidean distance — the model used by most of the paper.
  kDistance,
  // "Prominence": score = distance − prominence_weight · static_score, so a
  // popular tuple can outrank a closer one (Google Places' default mode).
  kProminence,
};

// Spatial index backend of the simulated service — invisible through the
// interface (both backends return bit-identical results): the k-d tree for
// a server that answers queries, brute force for a metadata-only server
// that is never searched (see spatial/backend.h).
using IndexBackend = SpatialBackend;

// Server-side configuration mirroring the real-world interface constraints
// catalogued in §2.1 and §5.3.
struct ServerOptions {
  // Interface top-k restriction: the largest k a client may request.
  int max_k = 10;

  // Maximum coverage radius d_max; tuples farther than this from the query
  // location are never returned (Google Maps: 50 km, Weibo: 11 km).
  double max_radius = std::numeric_limits<double>::infinity();

  RankingMode ranking = RankingMode::kDistance;

  // Name of the double column holding the static score for kProminence.
  std::string prominence_column = {};
  double prominence_weight = 0.0;

  // Location obfuscation (WeChat-style, §6.3 "Localization Accuracy"): each
  // tuple's position is replaced, deterministically per tuple, by a point
  // uniform in a disc of this radius around the true position. Ranking and
  // returned locations use the obfuscated positions.
  double obfuscation_radius = 0.0;
  uint64_t obfuscation_seed = 0x0bf5ca7ed;

  IndexBackend index_backend = IndexBackend::kKdTree;

  // When set, the spatial index publishes its per-search work counters
  // (spatial.kdtree.*) to this registry. Opt-in —
  // unlike the client and
  // estimator layers there is no null-means-default fallback, because the
  // index search is the hottest loop in the system and only runs that emit
  // run reports should pay the per-search counter flush. Pass
  // &obs::MetricsRegistry::Default() to land on the process-wide plane.
  obs::MetricsRegistry* stats_registry = nullptr;
};

// One ranked hit; `distance` is measured to the tuple's effective
// (possibly obfuscated) position.
struct ServerHit {
  int tuple_id = -1;
  double distance = 0.0;
};

// Effective (possibly obfuscated) tuple positions in id order — the exact
// per-tuple deterministic noise LbsServer applies, exposed so sharded
// front-ends (lbs/sharded_server.h) rank against identical positions.
std::vector<Vec2> ComputeEffectivePositions(const Dataset& dataset,
                                            const ServerOptions& options);

// The LBS backend: full access to the dataset plus a spatial index. Client
// classes (lbs/client.h) wrap it with the restricted public interfaces that
// the estimation algorithms are allowed to use.
class LbsServer {
 public:
  // `dataset` must outlive the server.
  LbsServer(const Dataset* dataset, ServerOptions options = {});

  // Answers a kNN query at `q` for min(k, max_k) tuples, honoring
  // max_radius and the optional pass-through selection condition.
  std::vector<ServerHit> Query(const Vec2& q, int k,
                               const TupleFilter& filter = nullptr) const;

  const Dataset& dataset() const { return *dataset_; }
  const ServerOptions& options() const { return options_; }

  // Effective (obfuscated) position of a tuple; equals the true position
  // when obfuscation_radius == 0.
  const Vec2& EffectivePosition(int id) const;

 private:
  const Dataset* dataset_;
  ServerOptions options_;
  std::vector<Vec2> effective_pos_;
  std::vector<double> prominence_;  // empty unless kProminence
  std::unique_ptr<SpatialIndex> index_;
};

}  // namespace lbsagg

#endif  // LBSAGG_LBS_SERVER_H_
