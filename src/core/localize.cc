#include "core/localize.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/binary_search.h"
#include "util/check.h"

namespace lbsagg {

Localizer::Localizer(LnrClient* client, LocalizeOptions options)
    : client_(client), options_(options) {
  LBSAGG_CHECK(client_ != nullptr);
  LBSAGG_CHECK_GE(options_.probe_points, 6);
  // As in LnrCellComputer: the cell's plane reaches the d2 binary searches
  // unless they were pinned to another.
  if (options_.cell.search.registry == nullptr) {
    options_.cell.search.registry = options_.cell.registry;
  }
}

std::optional<Vec2> Localizer::Locate(int id, const Vec2& q0) {
  LnrCellComputer computer(client_, options_.cell);
  const std::optional<LnrCellResult> cell = computer.ComputeTop1Cell(id, q0);
  if (!cell.has_value()) return std::nullopt;
  return LocateWithCell(id, *cell);
}

std::optional<Vec2> Localizer::RayDirectionAtVertex(
    int id, const LnrCellResult& cell, const Vec2& o, const Line& d1,
    int d1_neighbor, const Line& d3, int d3_neighbor) {
  (void)id;  // kept for symmetry with the paper's notation (t's vertex)
  const Box& box = client_->region();
  const double eta =
      options_.probe_radius_fraction * Distance(box.lo, box.hi);

  // Identify the two neighbor wedges around the vertex by probing a small
  // circle; the expected winners are the known far-side tuples of the two
  // incident edges.
  const int neighbor_a = d1_neighbor;
  const int neighbor_b = d3_neighbor;
  if (neighbor_a < 0 || neighbor_b < 0 || neighbor_a == neighbor_b) {
    return std::nullopt;
  }
  // The probe pair must straddle the t2|t3 wall *directly*: two adjacent
  // circle points with winners (t2, t3), so the segment between them cannot
  // cross the focal tuple's own wedge (which would make the flip search
  // find d1 or d3 instead of d2).
  std::vector<int> winners(options_.probe_points, -2);
  std::vector<Vec2> circle(options_.probe_points);
  for (int i = 0; i < options_.probe_points; ++i) {
    const double angle = 2.0 * M_PI * i / options_.probe_points;
    circle[i] = o + Vec2{std::cos(angle), std::sin(angle)} * eta;
    if (!box.Contains(circle[i])) continue;
    const std::vector<int> ids = client_->Query(circle[i]);
    winners[i] = ids.empty() ? -1 : ids.front();
  }
  std::optional<Vec2> probe_a;  // top-1 == neighbor across d1
  std::optional<Vec2> probe_b;  // top-1 == neighbor across d3
  for (int i = 0; i < options_.probe_points; ++i) {
    const int j = (i + 1) % options_.probe_points;
    if (winners[i] == neighbor_a && winners[j] == neighbor_b) {
      probe_a = circle[i];
      probe_b = circle[j];
      break;
    }
    if (winners[i] == neighbor_b && winners[j] == neighbor_a) {
      probe_a = circle[j];
      probe_b = circle[i];
      break;
    }
  }
  if (!probe_a.has_value() || !probe_b.has_value()) return std::nullopt;

  // One extra binary search (§4.3): d2 = B(t2, t3) crosses (probe_a,
  // probe_b) exactly once; it is the ray from the vertex o that separates
  // the two neighbor cells.
  LnrEdgeFinder finder(client_, options_.cell.search, CellMembership::kTop1);
  const int t2 = neighbor_a;
  const auto is_t2_top = [t2](const std::vector<int>& ids) {
    return !ids.empty() && ids.front() == t2;
  };
  const std::optional<FlipPoint> flip =
      finder.FindFlipOnSegment(is_t2_top, *probe_a, *probe_b);
  if (!flip.has_value()) return std::nullopt;
  if (Distance(flip->midpoint, o) < 1e-12) return std::nullopt;

  // The vertex o carries an O(ε) position error, so a line pinned at o and
  // a point only η away would have direction noise ~ε/η. Instead fix d2 by
  // a second flip point much farther out along the inferred direction; if
  // the t2/t3 wall ends early (another cell intervenes), shrink the
  // baseline until the flip straddles again.
  Line d2 = Line::Through(o, flip->midpoint);
  const Vec2 wall_dir = Normalized(flip->midpoint - o);
  for (double factor = options_.baseline_factor; factor >= 4.0;
       factor *= 0.5) {
    const double r_far = eta * factor;
    const Vec2 far_a = box.Clamp(o + Rotated(wall_dir, +0.3) * r_far);
    const Vec2 far_b = box.Clamp(o + Rotated(wall_dir, -0.3) * r_far);
    std::optional<FlipPoint> far_flip =
        finder.FindFlipOnSegment(is_t2_top, far_a, far_b);
    if (!far_flip.has_value()) {
      far_flip = finder.FindFlipOnSegment(is_t2_top, far_b, far_a);
    }
    if (!far_flip.has_value()) continue;
    // Accept only a flip on the same t2/t3 wall: the near side must be won
    // by t2 (the predicate guarantees it) and the far side by t3.
    if (far_flip->far_ids.empty() ||
        far_flip->far_ids.front() != neighbor_b) {
      continue;
    }
    if (Distance(far_flip->midpoint, flip->midpoint) < 1e-12) continue;
    d2 = Line::Through(flip->midpoint, far_flip->midpoint);
    break;
  }

  // Reflection identity: θ(o→t) = φ(d1) − φ(d2) + φ(d3)  (mod π).
  const double theta = d1.Angle() - d2.Angle() + d3.Angle();
  const Vec2 dir{std::cos(theta), std::sin(theta)};

  // Resolve the mod-π ambiguity: the tuple lies on the cell side of both
  // incident bisectors.
  for (const double sign : {+1.0, -1.0}) {
    const Vec2 p = o + dir * (sign * eta);
    if (d1.Side(p) < 0 && d3.Side(p) < 0 && cell.cell.Contains(p, 1e-6)) {
      return dir * sign;
    }
  }
  // Fall back to the side test alone (the vertex may sit on the box edge
  // where the polygon test is brittle).
  for (const double sign : {+1.0, -1.0}) {
    const Vec2 p = o + dir * (sign * eta);
    if (d1.Side(p) < 0 && d3.Side(p) < 0) return dir * sign;
  }
  return std::nullopt;
}

std::optional<Vec2> Localizer::LocateWithCell(int id,
                                              const LnrCellResult& cell) {
  if (cell.cell.IsEmpty()) return std::nullopt;
  const Box& box = client_->region();
  const double tol = 1e-7 * Distance(box.lo, box.hi);

  // Candidate vertices: intersections of two inferred bisector edges that
  // lie on the cell boundary (box corners carry no reflection information).
  struct Candidate {
    Vec2 vertex;
    const EdgeEstimate* e1;
    const EdgeEstimate* e2;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < cell.edges.size(); ++i) {
    // Only true bisector edges carry the reflection property; box edges and
    // coverage-limit chords (neighbor < 0) do not.
    if (cell.edges[i].is_box_edge || cell.edges[i].neighbor_id < 0) continue;
    for (size_t j = i + 1; j < cell.edges.size(); ++j) {
      if (cell.edges[j].is_box_edge || cell.edges[j].neighbor_id < 0) continue;
      const std::optional<Vec2> x =
          cell.edges[i].edge.Intersect(cell.edges[j].edge);
      if (!x.has_value() || !box.Contains(*x)) continue;
      if (!cell.cell.Contains(*x, tol)) continue;
      candidates.push_back({*x, &cell.edges[i], &cell.edges[j]});
    }
  }
  if (candidates.size() < 2) return std::nullopt;

  // Conditioning: the position is the intersection of the two rays, so the
  // pair of vertices should subtend an angle near 90° at the tuple —
  // near-collinear rays (vertices on opposite sides of the cell) amplify
  // the angular noise unboundedly. The tuple is unknown; the cell centroid
  // is an adequate proxy.
  const Vec2 centroid = cell.cell.Centroid();
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      pairs.push_back({i, j});
    }
  }
  auto abs_cos_at_centroid = [&](const std::pair<size_t, size_t>& pr) {
    const Vec2 u = candidates[pr.first].vertex - centroid;
    const Vec2 v = candidates[pr.second].vertex - centroid;
    const double denom = Norm(u) * Norm(v);
    if (denom <= 0.0) return 1.0;
    return std::abs(Dot(u, v)) / denom;
  };
  std::sort(pairs.begin(), pairs.end(),
            [&](const auto& a, const auto& b) {
              return abs_cos_at_centroid(a) < abs_cos_at_centroid(b);
            });
  if (pairs.size() > 6) pairs.resize(6);

  for (const auto& [i, j] : pairs) {
    const Candidate& a = candidates[i];
    const Candidate& b = candidates[j];
    const std::optional<Vec2> dir_a =
        RayDirectionAtVertex(id, cell, a.vertex, a.e1->edge,
                             a.e1->neighbor_id, a.e2->edge, a.e2->neighbor_id);
    if (!dir_a.has_value()) continue;
    const std::optional<Vec2> dir_b =
        RayDirectionAtVertex(id, cell, b.vertex, b.e1->edge,
                             b.e1->neighbor_id, b.e2->edge, b.e2->neighbor_id);
    if (!dir_b.has_value()) continue;

    const Line ray_a = Line::Through(a.vertex, a.vertex + *dir_a);
    const Line ray_b = Line::Through(b.vertex, b.vertex + *dir_b);
    const std::optional<Vec2> p = ray_a.Intersect(ray_b);
    if (!p.has_value()) continue;
    // The position must lie forward along both rays.
    if (Dot(*p - a.vertex, *dir_a) <= 0) continue;
    if (Dot(*p - b.vertex, *dir_b) <= 0) continue;
    return p;
  }
  return std::nullopt;
}

}  // namespace lbsagg
