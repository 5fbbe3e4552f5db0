#include "lbs/server.h"

#include <algorithm>
#include <cmath>

#include "spatial/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace lbsagg {

std::vector<Vec2> ComputeEffectivePositions(const Dataset& dataset,
                                            const ServerOptions& options) {
  std::vector<Vec2> positions = dataset.Positions();
  if (options.obfuscation_radius <= 0.0) return positions;
  for (size_t i = 0; i < positions.size(); ++i) {
    // Deterministic per-tuple noise so repeated queries are consistent, as
    // they are on the real services.
    Rng rng(options.obfuscation_seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    const double angle = rng.Uniform(0.0, 2.0 * M_PI);
    const double radius = options.obfuscation_radius * std::sqrt(rng.Uniform01());
    positions[i] += Vec2{std::cos(angle), std::sin(angle)} * radius;
    positions[i] = dataset.box().Clamp(positions[i]);
  }
  return positions;
}

LbsServer::LbsServer(const Dataset* dataset, ServerOptions options)
    : dataset_(dataset),
      options_(options),
      effective_pos_(ComputeEffectivePositions(*dataset, options)) {
  LBSAGG_CHECK_GE(options_.max_k, 1);
  index_ = MakeSpatialIndex(options_.index_backend, effective_pos_,
                            options_.stats_registry);
  if (options_.ranking == RankingMode::kProminence) {
    LBSAGG_CHECK(std::isfinite(options_.max_radius))
        << "prominence ranking requires a finite max_radius";
    const int col = dataset_->schema().Require(options_.prominence_column);
    LBSAGG_CHECK(dataset_->schema().type(col) == AttrType::kDouble);
    prominence_.reserve(dataset_->size());
    for (const Tuple& t : dataset_->tuples()) {
      prominence_.push_back(std::get<double>(t.values[col]));
    }
  }
}

std::vector<ServerHit> LbsServer::Query(const Vec2& q, int k,
                                        const TupleFilter& filter) const {
  LBSAGG_CHECK_GE(k, 1);
  k = std::min(k, options_.max_k);

  IndexFilter index_filter;
  if (filter) {
    index_filter = [this, &filter](int id) {
      return filter(dataset_->tuple(id));
    };
  }

  std::vector<Neighbor> candidates;
  if (options_.ranking == RankingMode::kProminence) {
    // Gather everything inside the coverage radius, score, and re-rank.
    candidates = index_->WithinRadius(q, options_.max_radius);
    if (index_filter) {
      std::erase_if(candidates,
                    [&](const Neighbor& n) { return !index_filter(n.index); });
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](const Neighbor& a, const Neighbor& b) {
                const double sa =
                    a.distance - options_.prominence_weight * prominence_[a.index];
                const double sb =
                    b.distance - options_.prominence_weight * prominence_[b.index];
                return sa < sb || (sa == sb && a.index < b.index);
              });
    if (candidates.size() > static_cast<size_t>(k)) candidates.resize(k);
  } else {
    candidates = index_->NearestFiltered(q, k, index_filter);
    while (!candidates.empty() &&
           candidates.back().distance > options_.max_radius) {
      candidates.pop_back();
    }
  }

  std::vector<ServerHit> hits;
  hits.reserve(candidates.size());
  for (const Neighbor& n : candidates) hits.push_back({n.index, n.distance});
  return hits;
}

const Vec2& LbsServer::EffectivePosition(int id) const {
  LBSAGG_CHECK_GE(id, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(id), effective_pos_.size());
  return effective_pos_[id];
}

}  // namespace lbsagg
