#include "core/lnr_cell.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "geometry/loc_key.h"
#include "geometry/predicates.h"

#include "util/check.h"

namespace lbsagg {

namespace {

LocKey MakeKey(const Vec2& p, double grid) { return MakeLocKey(p, grid); }

// Index of `id` in a ranked result; a large sentinel when absent.
int RankIndex(const std::vector<int>& ids, int id) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == id) return static_cast<int>(i);
  }
  return std::numeric_limits<int>::max();
}

// Quantized canonical key of a line, used to deduplicate coverage-limit
// "chord" edges that carry no neighbor identity.
struct LineKey {
  int64_t angle, offset;
  bool operator==(const LineKey&) const = default;
};
struct LineKeyHash {
  size_t operator()(const LineKey& k) const {
    // Same full-avalanche combine as LocKeyHash: angle/offset pairs from a
    // line arrangement are highly structured, and `a * C ^ b` folds those
    // patterns onto each other.
    return LocKeyHash()(LocKey{k.angle, k.offset});
  }
};
LineKey MakeLineKey(const Line& line, double grid) {
  const double norm = Norm(line.normal);
  return {static_cast<int64_t>(std::llround(line.Angle() / 1e-7)),
          static_cast<int64_t>(std::llround(line.offset / norm / grid))};
}

// Identifies the bounding-box side of a box-edge line (0..3) for
// deduplication; -1 for non-axis lines.
int BoxSideIndex(const Line& line, const Box& box) {
  const double nx = line.normal.x, ny = line.normal.y;
  const double tol = 1e-9 * (std::abs(nx) + std::abs(ny));
  if (std::abs(ny) <= tol) {
    const double x = line.offset / nx;
    if (std::abs(x - box.lo.x) < 1e-6 * box.width()) return 0;
    if (std::abs(x - box.hi.x) < 1e-6 * box.width()) return 1;
  } else if (std::abs(nx) <= tol) {
    const double y = line.offset / ny;
    if (std::abs(y - box.lo.y) < 1e-6 * box.height()) return 2;
    if (std::abs(y - box.hi.y) < 1e-6 * box.height()) return 3;
  }
  return -1;
}

// Detects the coverage circle (§5.3): the chord flip points all lie on the
// circle of known radius d_max around the (unknown) tuple. Three spread
// points give the center; every point must agree with the radius within
// tolerance. Returns the center, or nullopt.
std::optional<Vec2> DetectCoverageDisc(const std::vector<Vec2>& points,
                                       double dmax) {
  if (points.size() < 3 || !std::isfinite(dmax)) return std::nullopt;
  // Spread triple: first point, farthest from it, then the point farthest
  // from the line through those two.
  size_t i1 = 0;
  double best = 0.0;
  for (size_t j = 1; j < points.size(); ++j) {
    const double d = SquaredDistance(points[0], points[j]);
    if (d > best) {
      best = d;
      i1 = j;
    }
  }
  if (best < 1e-12) return std::nullopt;
  const Line base = Line::Through(points[0], points[i1]);
  size_t i2 = 0;
  best = 0.0;
  for (size_t j = 0; j < points.size(); ++j) {
    const double d = base.DistanceTo(points[j]);
    if (d > best) {
      best = d;
      i2 = j;
    }
  }
  if (best < 1e-6 * dmax) return std::nullopt;  // nearly collinear
  const Vec2 center = Circumcenter(points[0], points[i1], points[i2]);
  for (const Vec2& p : points) {
    if (std::abs(Distance(center, p) - dmax) > 1e-2 * dmax) {
      return std::nullopt;
    }
  }
  return center;
}

}  // namespace

LnrCellComputer::LnrCellComputer(LnrClient* client, LnrCellOptions options)
    : client_(client),
      options_(options),
      cells_counter_(
          obs::GetCounter(options.registry, "estimator.lnr_cell.cells")),
      edges_counter_(
          obs::GetCounter(options.registry, "estimator.lnr_cell.edges")),
      queries_counter_(
          obs::GetCounter(options.registry, "estimator.lnr_cell.queries")) {
  LBSAGG_CHECK(client_ != nullptr);
  // One observability pointer instruments the whole stack: flow the cell
  // registry into the binary searches unless pinned there explicitly.
  if (options_.search.registry == nullptr) {
    options_.search.registry = options_.registry;
  }
}

std::optional<LnrCellResult> LnrCellComputer::ComputeTop1Cell(int id,
                                                              const Vec2& q0) {
  const uint64_t start_queries = client_->queries_used();
  const Box& box = client_->region();
  const double grid =
      std::max({1.0, std::abs(box.hi.x), std::abs(box.hi.y)}) * 1e-9;

  LnrEdgeFinder finder(client_, options_.search, CellMembership::kTop1);

  const std::vector<int> ids0 = client_->Query(q0);
  if (ids0.empty() || ids0.front() != id) return std::nullopt;

  LnrCellResult result;
  std::unordered_set<int> known_neighbors;
  std::unordered_set<int> known_box_sides;
  std::unordered_set<LineKey, LineKeyHash> chord_keys;

  // Coverage-circle state (§5.3): chord flip points accumulate until three
  // of them pin down the d_max disc around the (unknown) tuple, after which
  // the disc polygon becomes the clip domain and chords are retired — a
  // circle cannot be tiled by ε-certified chords one vertex at a time.
  std::vector<Vec2> circle_points;
  bool has_disc = false;
  Vec2 disc_center;
  ConvexPolygon domain = ConvexPolygon::FromBox(box);

  auto try_form_disc = [&]() {
    if (has_disc) return false;
    const std::optional<Vec2> center =
        DetectCoverageDisc(circle_points, client_->max_radius());
    if (!center.has_value()) return false;
    has_disc = true;
    disc_center = *center;
    domain = ClipToDisc(std::move(domain), disc_center, client_->max_radius());
    // Retire the chord approximations — the disc replaces them.
    std::erase_if(result.edges, [](const EdgeEstimate& e) {
      return !e.is_box_edge && e.neighbor_id < 0;
    });
    return true;
  };

  auto add_edge = [&](const EdgeEstimate& e) {
    if (e.is_box_edge) {
      const int side = BoxSideIndex(e.edge, box);
      if (side < 0 || !known_box_sides.insert(side).second) return false;
    } else if (e.neighbor_id < 0) {
      if (has_disc) return false;  // circle known: chords obsolete
      // Coverage-limit chord (§5.3). Deduplicate by the line itself and
      // remember the crossing point — it lies on the d_max circle.
      circle_points.push_back(Midpoint(e.near_witness, e.far_witness));
      if (try_form_disc()) return true;
      if (!chord_keys.insert(MakeLineKey(e.edge, grid * 1e6)).second) {
        return false;
      }
    } else {
      if (!known_neighbors.insert(e.neighbor_id).second) return false;
    }
    result.edges.push_back(e);
    return true;
  };

  // Coverage-limit chords found by Algorithm 7 carry no neighbor and fall
  // back to a perpendicular line whose orientation can cut into the d_max
  // disc; refine them with the certified local-tangent search.
  auto top1_member = [&](const std::vector<int>& ids) {
    return !ids.empty() && ids.front() == id;
  };
  const double chord_baseline = 0.01 * Distance(box.lo, box.hi);
  auto refine_chord = [&](EdgeEstimate& e) {
    if (e.is_box_edge || e.neighbor_id >= 0) return;
    if (std::optional<Line> line = finder.FindBoundaryLine(
            top1_member, q0, e.far_witness, chord_baseline)) {
      e.edge = *line;
      if (e.edge.Side(q0) > 0) e.edge = Line(-e.edge.normal, -e.edge.offset);
    }
  };

  // Algorithm 6 line 3-5: four axis-aligned rays bound an initial polygon.
  const Vec2 dirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  for (const Vec2& d : dirs) {
    if (std::optional<EdgeEstimate> e = finder.FindEdgeOnRay(id, q0, q0 + d)) {
      refine_chord(*e);
      add_edge(*e);
    }
  }

  auto rebuild = [&]() {
    ConvexPolygon poly = domain;
    for (const EdgeEstimate& e : result.edges) {
      if (e.is_box_edge) continue;
      poly = poly.Clip(HalfPlane(e.edge));
      if (poly.IsEmpty()) break;
    }
    return poly;
  };

  std::unordered_set<LocKey, LocKeyHash> processed;
  ConvexPolygon poly = rebuild();
  result.converged = false;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (poly.IsEmpty()) break;  // ε pathology: edges crossed over q0
    const Vec2* next_vertex = nullptr;
    for (const Vec2& v : poly.vertices()) {
      if (!processed.count(MakeKey(v, grid))) {
        next_vertex = &v;
        break;
      }
    }
    if (next_vertex == nullptr) {
      result.converged = true;
      break;
    }
    const Vec2 v = *next_vertex;
    processed.insert(MakeKey(v, grid));
    if (Distance(v, q0) <= finder.delta()) continue;

    const std::vector<int> ids = client_->Query(v);
    const int top = ids.empty() ? -1 : ids.front();
    if (top != id && top != -1 && known_neighbors.count(top) > 0) {
      continue;  // vertex passes: its winner's bisector is already known
    }
    if (has_disc) {
      if (top == -1) continue;  // beyond coverage: the disc handles it
      if (top == id &&
          Distance(v, disc_center) >=
              client_->max_radius() * (1.0 - 2e-3)) {
        continue;  // the cell genuinely reaches the circle here
      }
    }
    // Either the vertex is still inside the cell (top == id — the cell
    // extends beyond it) or a new neighbor surfaced: both cases are fixed by
    // one more binary search along the ray q0 → v.
    if (std::optional<EdgeEstimate> e = finder.FindEdgeOnRay(id, q0, v)) {
      if (static_cast<int>(result.edges.size()) < options_.max_edges) {
        refine_chord(*e);
        if (add_edge(*e)) poly = rebuild();
      }
    }
  }

  result.cell = std::move(poly);
  result.area = result.cell.Area();
  result.queries = client_->queries_used() - start_queries;
  cells_counter_.Add(1);
  edges_counter_.Add(result.edges.size());
  queries_counter_.Add(result.queries);
  return result;
}

std::optional<LnrCellResult> LnrCellComputer::ComputeTopkCell(int id,
                                                               const Vec2& q0) {
  const uint64_t start_queries = client_->queries_used();
  const Box& box = client_->region();
  const double grid =
      std::max({1.0, std::abs(box.hi.x), std::abs(box.hi.y)}) * 1e-9;
  const int k = client_->k();
  const int sentinel = std::numeric_limits<int>::max();

  LnrEdgeFinder finder(client_, options_.search, CellMembership::kTopK);

  LnrCellResult result;
  std::unordered_set<int> known_bisectors;
  // Anchor pairs already tried per tuple, so failed discoveries are retried
  // only once genuinely new anchors appear in the cache.
  std::unordered_set<uint64_t> tried_pairs;
  // Every ranked answer observed during this computation, including the
  // binary searches' internal probes: the §4.2 co-occurrence information.
  std::vector<std::pair<Vec2, std::vector<int>>> cache;
  // Tuples seen in the same answer as the focal one (the paper's D').
  std::vector<int> cooccur;
  std::unordered_set<int> cooccur_set;

  auto ingest = [&](const Vec2& loc, const std::vector<int>& ids) {
    cache.push_back({loc, ids});
    if (RankIndex(ids, id) == sentinel) return;
    for (int other : ids) {
      if (other != id && cooccur_set.insert(other).second) {
        cooccur.push_back(other);
      }
    }
  };
  finder.SetObserver(ingest);

  const std::vector<int> ids0 = client_->Query(q0);
  ingest(q0, ids0);
  if (RankIndex(ids0, id) == sentinel) return std::nullopt;

  auto add_edge = [&](const Line& line, int neighbor, const Vec2& near,
                      const Vec2& far) {
    if (neighbor < 0 || !known_bisectors.insert(neighbor).second) return false;
    result.edges.push_back({line, neighbor, false, near, far});
    return true;
  };

  // Coverage-limit chords (§5.3): hard clips where the top-k membership of
  // t ends at the d_max circle rather than at a bisector. Once three chord
  // crossings pin down the d_max disc, the disc polygon replaces them as
  // the clip domain (a circle cannot be tiled by chords one at a time).
  std::vector<Line> chords;
  std::unordered_set<LineKey, LineKeyHash> chord_keys;
  std::vector<Vec2> circle_points;
  bool has_disc = false;
  Vec2 disc_center;
  ConvexPolygon base_domain = ConvexPolygon::FromBox(box);
  auto try_form_disc = [&]() {
    if (has_disc) return false;
    const std::optional<Vec2> center =
        DetectCoverageDisc(circle_points, client_->max_radius());
    if (!center.has_value()) return false;
    has_disc = true;
    disc_center = *center;
    base_domain =
        ClipToDisc(std::move(base_domain), disc_center, client_->max_radius());
    chords.clear();
    return true;
  };
  auto add_chord = [&](Line line, const Vec2& member_side,
                       const Vec2& circle_point) {
    if (has_disc) return false;
    circle_points.push_back(circle_point);
    if (try_form_disc()) return true;
    if (line.Side(member_side) > 0) line = Line(-line.normal, -line.offset);
    if (!chord_keys.insert(MakeLineKey(line, grid * 1e6)).second) return false;
    chords.push_back(line);
    return true;
  };
  auto member_pred = [&](const std::vector<int>& ids) {
    return RankIndex(ids, id) != std::numeric_limits<int>::max();
  };

  // Window half-width for the branch-certified local-tangent search.
  const double baseline = 0.01 * Distance(box.lo, box.hi);

  // "other is closer than t" wherever observable (one of the two visible);
  // unobservable points count as false.
  auto closer_pred = [&](int other) {
    return [this, id, other](const std::vector<int>& ids) {
      (void)this;
      return RankIndex(ids, other) < RankIndex(ids, id);
    };
  };
  // A genuine B(t, other) crossing swaps exactly the adjacent pair: t's
  // rank improves by one across it (or t enters at the tail). Boundaries of
  // mere observability (a third tuple displacing `other`) are rejected.
  auto bisector_validator = [&](int other) {
    return [this, id, other](const FlipPoint& flip) {
      (void)this;
      const int s = std::numeric_limits<int>::max();
      const int rt_true = RankIndex(flip.near_ids, id);
      const int rt_false = RankIndex(flip.far_ids, id);
      if (rt_false == s) return false;
      if (RankIndex(flip.near_ids, other) == s) return false;
      if (rt_true == s) {
        return rt_false == static_cast<int>(flip.far_ids.size()) - 1;
      }
      return rt_false == rt_true - 1;
    };
  };

  // Discovers B(t, other) between a point where `other` outranks t and a
  // nearby point where t outranks `other`, scanning sub-intervals so the
  // validated search can reject observability walls and move on. Untried
  // anchor pairs are attempted nearest-first; as the cache grows, later
  // calls get fresh pairs, so a tuple whose bisector is only observable in
  // a region explored later still gets discovered.
  auto discover_bisector = [&](int other) {
    if (known_bisectors.count(other)) return false;
    const auto pred = closer_pred(other);
    const auto validator = bisector_validator(other);

    // Anchor pools. Fresh vectors: `cache` grows during the searches below.
    std::vector<Vec2> true_anchors, false_anchors;
    for (const auto& [loc, ids] : cache) {
      const int rt = RankIndex(ids, id);
      const int ro = RankIndex(ids, other);
      if (ro < rt) {
        true_anchors.push_back(loc);
      } else if (rt < ro) {
        false_anchors.push_back(loc);
      }
    }
    if (true_anchors.empty() || false_anchors.empty()) return false;

    // All candidate pairs by ascending distance (short segments cross the
    // fewest irrelevant boundaries); keep the closest few untried ones.
    // 16-byte records of (d², anchor indices): the comparator reads d²
    // alone, so std::sort permutes them exactly as it would the full pairs,
    // and a pair's points and key are built only once the loop reaches it.
    struct Pair {
      double d2;
      int32_t ti, fi;
    };
    std::vector<Pair> candidates;
    candidates.reserve(true_anchors.size() * false_anchors.size());
    for (size_t ti = 0; ti < true_anchors.size(); ++ti) {
      for (size_t fi = 0; fi < false_anchors.size(); ++fi) {
        candidates.push_back(
            {SquaredDistance(true_anchors[ti], false_anchors[fi]),
             static_cast<int32_t>(ti), static_cast<int32_t>(fi)});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Pair& a, const Pair& b) { return a.d2 < b.d2; });

    int attempted = 0;
    for (const Pair& candidate : candidates) {
      if (attempted >= 3) break;
      const Vec2 ta = true_anchors[candidate.ti];
      const Vec2 fa = false_anchors[candidate.fi];
      const LocKey ka = MakeKey(ta, grid * 1e3);
      const LocKey kb = MakeKey(fa, grid * 1e3);
      uint64_t key = static_cast<uint64_t>(other) * 0x9e3779b97f4a7c15ull;
      key ^= LocKeyHash()(ka) + 0x517cc1b727220a95ull * LocKeyHash()(kb);
      if (!tried_pairs.insert(key).second) continue;
      ++attempted;

      constexpr int kSubdivisions = 7;
      Vec2 pts_scan[kSubdivisions + 2];
      bool truth[kSubdivisions + 2];
      pts_scan[0] = ta;
      truth[0] = true;
      pts_scan[kSubdivisions + 1] = fa;
      truth[kSubdivisions + 1] = false;
      for (int j = 1; j <= kSubdivisions; ++j) {
        pts_scan[j] =
            ta + (fa - ta) * (static_cast<double>(j) / (kSubdivisions + 1));
        const std::vector<int> ids = client_->Query(pts_scan[j]);
        ingest(pts_scan[j], ids);
        truth[j] = pred(ids);
      }
      for (int j = 0; j <= kSubdivisions; ++j) {
        if (!truth[j] || truth[j + 1]) continue;
        std::optional<Line> line = finder.FindBoundaryLine(
            pred, pts_scan[j], pts_scan[j + 1], baseline, validator);
        if (!line.has_value()) continue;
        if (line->Side(ta) < 0) {
          // Positive side = `other` closer (a global bisector property).
          *line = Line(-line->normal, -line->offset);
        }
        if (add_edge(*line, other, fa, ta)) return true;
      }
    }
    return false;
  };

  // Discovers the cell-boundary piece crossed between a member point and
  // the non-member point v: the membership flip is always observable, and
  // its newcomer identifies the bisector (or a d_max chord when no tuple
  // displaced t).
  auto discover_from_vertex = [&](const Vec2& v) {
    const Vec2* member_anchor = &q0;
    double best_d = SquaredDistance(q0, v);
    for (const auto& [loc, ids_c] : cache) {
      if (!member_pred(ids_c)) continue;
      const double d2 = SquaredDistance(loc, v);
      if (d2 < best_d) {
        best_d = d2;
        member_anchor = &loc;
      }
    }
    const Vec2 anchor = *member_anchor;  // copy: cache reallocates below

    constexpr int kSubdivisions = 7;
    Vec2 pts_scan[kSubdivisions + 2];
    bool member_at[kSubdivisions + 2];
    pts_scan[0] = anchor;
    member_at[0] = true;
    pts_scan[kSubdivisions + 1] = v;
    member_at[kSubdivisions + 1] = false;
    for (int j = 1; j <= kSubdivisions; ++j) {
      pts_scan[j] =
          anchor + (v - anchor) * (static_cast<double>(j) / (kSubdivisions + 1));
      const std::vector<int> ids_j = client_->Query(pts_scan[j]);
      ingest(pts_scan[j], ids_j);
      member_at[j] = member_pred(ids_j);
    }
    for (int j = 0; j <= kSubdivisions; ++j) {
      if (!member_at[j] || member_at[j + 1]) continue;
      const std::optional<FlipPoint> flip = finder.FindFlipOnSegment(
          member_pred, pts_scan[j], pts_scan[j + 1]);
      if (!flip.has_value()) continue;
      int newcomer = -1;
      for (int other : flip->far_ids) {
        if (std::find(flip->near_ids.begin(), flip->near_ids.end(), other) ==
            flip->near_ids.end()) {
          newcomer = other;
          break;
        }
      }
      if (newcomer >= 0) {
        if (known_bisectors.count(newcomer)) continue;
        auto same_wall = [&, newcomer](const FlipPoint& f) {
          return std::find(f.far_ids.begin(), f.far_ids.end(), newcomer) !=
                     f.far_ids.end() &&
                 RankIndex(f.near_ids, id) != std::numeric_limits<int>::max();
        };
        std::optional<Line> line = finder.FindBoundaryLine(
            member_pred, pts_scan[j], pts_scan[j + 1], baseline, same_wall);
        if (!line.has_value()) continue;
        if (line->Side(flip->near) > 0) {
          *line = Line(-line->normal, -line->offset);
        }
        if (add_edge(*line, newcomer, flip->near, flip->far)) return true;
      } else if (has_disc) {
        continue;  // the disc already explains the membership loss
      } else if (std::optional<Line> chord = finder.FindBoundaryLine(
                     member_pred, pts_scan[j], pts_scan[j + 1], baseline)) {
        if (add_chord(*chord, flip->near, flip->midpoint)) return true;
      }
    }
    return false;
  };

  // Initial edges: four rays (Algorithm 6 adapted to top-k membership).
  const Vec2 dirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  for (const Vec2& d : dirs) {
    if (std::optional<EdgeEstimate> e = finder.FindEdgeOnRay(id, q0, q0 + d)) {
      if (!e->is_box_edge) {
        add_edge(e->edge, e->neighbor_id, e->near_witness, e->far_witness);
      }
    }
  }

  auto rebuild = [&]() {
    ConvexPolygon domain = base_domain;
    for (const Line& c : chords) {
      domain = domain.Clip(HalfPlane(c));
      if (domain.IsEmpty()) return TopkRegion{};
    }
    std::vector<Line> lines;
    lines.reserve(result.edges.size());
    for (const EdgeEstimate& e : result.edges) lines.push_back(e.edge);
    return ComputeLevelRegionFromLines(lines, domain, k);
  };

  std::unordered_set<LocKey, LocKeyHash> processed;
  TopkRegion region = rebuild();
  result.converged = false;
  int quiet_rounds = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (region.IsEmpty()) break;  // ε pathology
    if (static_cast<int>(result.edges.size()) >= options_.max_edges) break;
    bool progress = false;

    // §4.2 completion: every co-occurring tuple needs its bisector — this
    // is what recovers concave notches whose bisectors are only observable
    // deep inside the cell's neighborhood.
    for (size_t ci = 0; ci < cooccur.size() && !progress; ++ci) {
      if (known_bisectors.count(cooccur[ci])) continue;
      progress = discover_bisector(cooccur[ci]);
    }

    // Theorem-1-style vertex tests on the current outer approximation.
    if (!progress) {
      bool any_unprocessed = false;
      for (const Vec2& v : region.BoundaryVertices()) {
        const LocKey key = MakeKey(v, grid);
        if (processed.count(key)) continue;
        any_unprocessed = true;
        processed.insert(key);
        const std::vector<int> ids = client_->Query(v);
        ingest(v, ids);
        if (RankIndex(ids, id) != sentinel) {
          continue;  // vertex inside/on the true cell: fine for an outer approx
        }
        if (has_disc && static_cast<int>(ids.size()) < k &&
            Distance(v, disc_center) >=
                client_->max_radius() * (1.0 - 2e-3)) {
          continue;  // truncated answer on the circle: the disc handles it
        }
        // Try the bisectors of the returned tuples first, then the generic
        // membership crossing toward v.
        for (int other : ids) {
          if (discover_bisector(other)) {
            progress = true;
            break;
          }
        }
        if (!progress) progress = discover_from_vertex(v);
        if (progress) break;
      }

      // Interior verification: the region must consist of member locations
      // only. Probing each piece at a few area-proportional points exposes
      // excess areas — e.g. a concave notch whose bisectors have no vertex
      // anywhere near them — and seeds the membership-crossing discovery
      // inside them. Deterministic seed: the cell computation must not
      // depend on outside RNG state.
      bool any_probe_left = false;
      if (!progress) {
        Rng probe_rng(0x7e57c311u + static_cast<uint64_t>(iter) * 977u);
        for (const ConvexPolygon& piece : region.pieces) {
          if (piece.IsEmpty() || progress) break;
          const int samples = std::min<int>(
              6, 1 + static_cast<int>(24.0 * piece.Area() / region.area));
          for (int sidx = 0; sidx < samples && !progress; ++sidx) {
            const Vec2 c =
                sidx == 0 ? piece.Centroid() : piece.SamplePoint(probe_rng);
            const LocKey key = MakeKey(c, grid);
            if (processed.count(key)) continue;
            any_probe_left = true;
            processed.insert(key);
            const std::vector<int> ids = client_->Query(c);
            ingest(c, ids);
            if (RankIndex(ids, id) != sentinel) continue;  // member: fine
            for (int other : ids) {
              if (discover_bisector(other)) {
                progress = true;
                break;
              }
            }
            if (!progress) progress = discover_from_vertex(c);
          }
        }
      }

      // Converge after two consecutive rounds in which neither the vertex
      // tests nor the interior probes found anything wrong (the second
      // round draws fresh probe locations).
      (void)any_probe_left;
      if (!progress && !any_unprocessed) {
        if (++quiet_rounds >= options_.interior_quiet_rounds) {
          result.converged = true;
          break;
        }
      } else if (progress) {
        quiet_rounds = 0;
      }
    }

    if (progress) region = rebuild();
  }

  result.area = region.area;
  result.region = std::move(region);
  result.queries = client_->queries_used() - start_queries;
  cells_counter_.Add(1);
  edges_counter_.Add(result.edges.size());
  queries_counter_.Add(result.queries);
  return result;
}

}  // namespace lbsagg
