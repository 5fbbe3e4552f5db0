#include "core/lr_cell.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/loc_key.h"
#include "geometry/polygon.h"
#include "util/check.h"

namespace lbsagg {

namespace {

// §5.3: restore nearest-neighbor order under non-distance (prominence)
// ranking — every rank test below means distance rank. Skipped entirely for
// plain distance-ranked services, whose results arrive already sorted.
std::vector<LrClient::Item> QueryByDistance(LrClient* client, const Vec2& q) {
  std::vector<LrClient::Item> items = client->Query(q);
  if (!client->distance_ranked()) {
    std::stable_sort(items.begin(), items.end(),
                     [](const LrClient::Item& a, const LrClient::Item& b) {
                       return a.distance < b.distance;
                     });
  }
  return items;
}

// Adds `key` to the sorted key set `keys`; false when it was there already.
// The refinement loop only asks "seen before?" of its sets and never
// iterates them, and they stay small, so a sorted vector serves without a
// hash node per insert.
bool InsertKey(std::vector<LocKey>& keys, const LocKey& key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it != keys.end() && *it == key) return false;
  keys.insert(it, key);
  return true;
}

}  // namespace

LrCellComputer::LrCellComputer(LrClient* client, History* history,
                               const QuerySampler* sampler,
                               LrCellOptions options)
    : client_(client),
      history_(history),
      sampler_(sampler),
      options_(options),
      refine_rounds_counter_(
          obs::GetCounter(options.registry, "estimator.lr_cell.refine_rounds")),
      mc_trials_counter_(
          obs::GetCounter(options.registry, "estimator.lr_cell.mc_trials")),
      queries_counter_(
          obs::GetCounter(options.registry, "estimator.lr_cell.queries")) {
  LBSAGG_CHECK(client_ != nullptr);
  LBSAGG_CHECK(history_ != nullptr);
  LBSAGG_CHECK(sampler_ != nullptr);
}

LrCellComputer::LoopOutcome LrCellComputer::RefineCell(int id, const Vec2& pos,
                                                       int h,
                                                       bool allow_early_stop) {
  LBSAGG_CHECK_GE(h, 1);
  LBSAGG_CHECK_LE(h, client_->k());
  const Box& box = client_->region();
  const double grid = LocKeyGrid(box);

  // §5.3 maximum coverage radius: the inclusion region of t is its top-h
  // cell intersected with the d_max disc around t (queries farther away
  // never return t even when it is nearest). The disc enters as the convex
  // domain of the region computation.
  ConvexPolygon domain = ConvexPolygon::FromBox(box);
  if (std::isfinite(client_->max_radius())) {
    domain = ClipToDisc(std::move(domain), pos, client_->max_radius());
    LBSAGG_CHECK(!domain.IsEmpty());
  }

  LoopOutcome out;

  // Known constraint positions (real tuples other than the focal one).
  // Deduplicated by quantized position: history seeds carry no id, so the
  // position is the identity that matters for the bisectors.
  std::vector<Vec2> known;
  std::vector<LocKey> known_keys;
  auto add_known = [&](const Vec2& p) {
    if (!InsertKey(known_keys, MakeLocKey(p, grid))) return false;
    known.push_back(p);
    return true;
  };

  // §3.2.2: seed from history.
  std::vector<Vec2> seed_positions;
  if (options_.use_history) {
    seed_positions =
        history_->NearestOtherPositions(pos, id, options_.history_neighbors);
  }

  // §3.2.1 Fast-Init: when we know nothing around t, probe a small box
  // around it first. The fake tuples only steer the first queries; they are
  // never part of D'.
  if (options_.fast_init && seed_positions.empty()) {
    double halfwidth =
        options_.fast_init_fraction *
        Distance(box.lo, box.hi);
    const Vec2 fakes[4] = {pos + Vec2{halfwidth, halfwidth},
                           pos + Vec2{-halfwidth, halfwidth},
                           pos + Vec2{-halfwidth, -halfwidth},
                           pos + Vec2{halfwidth, -halfwidth}};
    const TopkRegion fake_region = ComputeTopkRegion(
        pos, std::vector<Vec2>(fakes, fakes + 4), domain, h);
    for (const Vec2& v : fake_region.BoundaryVertices()) {
      const std::vector<LrClient::Item> items = QueryByDistance(client_, v);
      ++out.queries;
      for (const LrClient::Item& item : items) {
        history_->Record(item.id, item.location);
        if (item.id != id) add_known(item.location);
      }
    }
    // If the box was too small (only t itself returned), `known` stays
    // empty and the loop below reverts to the plain design — exactly the
    // "wasting nothing but four queries" fallback of Algorithm 2.
  }

  for (const Vec2& p : seed_positions) add_known(p);

  std::vector<LocKey> queried;
  double prev_area = std::numeric_limits<double>::infinity();

  while (true) {
    ++out.rounds;
    LBSAGG_CHECK_LE(out.rounds, options_.max_rounds)
        << "Voronoi refinement did not converge";

    TopkRegion region = ComputeTopkRegion(pos, known, domain, h);
    LBSAGG_CHECK(!region.IsEmpty());

    // §3.2.4 early stop: the bounding region barely shrank last round.
    if (allow_early_stop && out.rounds > options_.mc_min_rounds &&
        prev_area < std::numeric_limits<double>::infinity()) {
      const double shrink = (prev_area - region.area) / region.area;
      if (shrink < options_.mc_shrink_threshold) {
        out.region = std::move(region);
        out.exact = false;
        return out;
      }
    }
    prev_area = region.area;

    bool new_tuple = false;
    for (const Vec2& v : region.BoundaryVertices()) {
      if (!InsertKey(queried, MakeLocKey(v, grid))) continue;
      const std::vector<LrClient::Item> items = QueryByDistance(client_, v);
      ++out.queries;
      bool t_in_top_h = false;
      for (size_t i = 0; i < items.size(); ++i) {
        const LrClient::Item& item = items[i];
        history_->Record(item.id, item.location);
        if (item.id == id) {
          if (static_cast<int>(i) < h) t_in_top_h = true;
          continue;
        }
        if (add_known(item.location)) new_tuple = true;
      }
      if (t_in_top_h) out.confirmed_in_cell.push_back(v);
    }

    if (!new_tuple) {
      // Theorem 1: every vertex of the current region returns only known
      // tuples — the region is the exact top-h Voronoi cell.
      out.region = std::move(region);
      out.exact = true;
      return out;
    }
  }
}

LrCellComputer::Result LrCellComputer::ComputeInverseProbability(int id,
                                                                 const Vec2& pos,
                                                                 int h,
                                                                 Rng& rng) {
  LoopOutcome outcome = RefineCell(id, pos, h, options_.monte_carlo);

  Result result;
  result.queries = outcome.queries;
  result.rounds = outcome.rounds;
  result.region_area = outcome.region.area;
  result.exact = outcome.exact;

  const double region_prob = sampler_->RegionProbability(outcome.region);
  LBSAGG_CHECK_GT(region_prob, 0.0);

  if (outcome.exact) {
    result.inv_probability = 1.0 / region_prob;
    refine_rounds_counter_.Add(static_cast<uint64_t>(result.rounds));
    queries_counter_.Add(result.queries);
    return result;
  }

  // §3.2.4 Monte-Carlo trials: draw f-distributed points from the bounding
  // region V' until one lands in the true cell. E[#trials] = P(V')/P(V), so
  // trials / P(V') is an unbiased estimate of 1/P(V).
  //
  // Lower-bound shortcut (query-free hits) for h == 1: the convex hull of
  // vertices confirmed inside the (convex) cell is contained in the cell.
  ConvexPolygon hull;
  if (h == 1 && outcome.confirmed_in_cell.size() >= 3) {
    hull = ConvexPolygon::ConvexHull(outcome.confirmed_in_cell);
  }

  int trials = 0;
  while (true) {
    ++trials;
    LBSAGG_CHECK_LE(trials, 1000000) << "Monte-Carlo trials runaway";
    const Vec2 x = sampler_->SampleFromRegion(outcome.region, rng);

    if (!hull.IsEmpty() && hull.Contains(x)) break;  // inside the cell

    const std::vector<LrClient::Item> items = QueryByDistance(client_, x);
    ++result.queries;
    bool hit = false;
    for (size_t i = 0; i < items.size(); ++i) {
      history_->Record(items[i].id, items[i].location);
      if (items[i].id == id && static_cast<int>(i) < h) hit = true;
    }
    if (hit) break;
  }

  result.mc_trials = trials;
  result.inv_probability = static_cast<double>(trials) / region_prob;
  refine_rounds_counter_.Add(static_cast<uint64_t>(result.rounds));
  mc_trials_counter_.Add(static_cast<uint64_t>(result.mc_trials));
  queries_counter_.Add(result.queries);
  return result;
}

TopkRegion LrCellComputer::ComputeExactCell(int id, const Vec2& pos, int h) {
  LoopOutcome outcome = RefineCell(id, pos, h, /*allow_early_stop=*/false);
  LBSAGG_CHECK(outcome.exact);
  refine_rounds_counter_.Add(static_cast<uint64_t>(outcome.rounds));
  queries_counter_.Add(outcome.queries);
  return std::move(outcome.region);
}

}  // namespace lbsagg
