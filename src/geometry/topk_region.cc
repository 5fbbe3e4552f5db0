#include "geometry/topk_region.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.h"

namespace lbsagg {

namespace {

// Quantized endpoint key used to match shared edges between adjacent pieces.
struct PointKey {
  int64_t x;
  int64_t y;
  bool operator==(const PointKey&) const = default;
};

struct EdgeKey {
  PointKey a;
  PointKey b;
  bool operator==(const EdgeKey&) const = default;
};

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<uint64_t>(k.a.x));
    mix(static_cast<uint64_t>(k.a.y));
    mix(static_cast<uint64_t>(k.b.x));
    mix(static_cast<uint64_t>(k.b.y));
    return static_cast<size_t>(h);
  }
};

PointKey Quantize(const Vec2& p, double grid) {
  return {static_cast<int64_t>(std::llround(p.x / grid)),
          static_cast<int64_t>(std::llround(p.y / grid))};
}

EdgeKey UndirectedKey(const PointKey& a, const PointKey& b) {
  if (a.x < b.x || (a.x == b.x && a.y < b.y)) return {a, b};
  return {b, a};
}

// One convex piece of a level-region decomposition together with the number
// of lines whose positive side contains it.
struct LevelPiece {
  ConvexPolygon poly;
  int closer_count = 0;
};

// Applies one oriented line to the piece set: pieces fully on the negative
// side pass through, pieces fully on the positive side gain a closer-count
// (and die at k), straddling pieces split. A straddling piece at the last
// level (closer_count + 1 == k) would see its positive half die at once, so
// only its negative half is built: Split's first clip, bit for bit, without
// the second clip and its Area(). Every split of a k = 1 region takes this
// path. Halves no larger than `area_eps` are dropped. The survivors are
// built in `scratch` and swapped in, so one pair of buffers serves every
// line of a clip loop. Returns true if any piece changed (split, count
// bump, or drop) — i.e. if the live bounding box may have shrunk.
bool ApplyLine(std::vector<LevelPiece>& pieces,
               std::vector<LevelPiece>& scratch, const Line& line, int k,
               double area_eps) {
  scratch.clear();
  const auto keep = [&](ConvexPolygon&& poly, int closer_count) {
    if (!poly.IsEmpty() && poly.Area() > area_eps) {
      scratch.push_back({std::move(poly), closer_count});
    }
  };
  bool changed = false;
  for (LevelPiece& piece : pieces) {
    bool any_neg = false;
    bool any_pos = false;
    for (const Vec2& v : piece.poly.vertices()) {
      const double s = line.Side(v);
      if (s < 0) any_neg = true;
      if (s > 0) any_pos = true;
      if (any_neg && any_pos) break;
    }
    if (!any_pos) {
      scratch.push_back(std::move(piece));
      continue;
    }
    changed = true;
    if (!any_neg) {
      piece.closer_count += 1;
      if (piece.closer_count < k) scratch.push_back(std::move(piece));
      continue;
    }
    if (piece.closer_count + 1 >= k) {
      keep(piece.poly.Clip(HalfPlane(line)), piece.closer_count);
      continue;
    }
    auto [neg, pos] = piece.poly.Split(line);
    keep(std::move(neg), piece.closer_count);
    keep(std::move(pos), piece.closer_count + 1);
  }
  pieces.swap(scratch);
  return changed;
}

// Total area of the pieces, summed in piece order. FinalizeRegion and the
// area-only path both take the region area from here, so they agree bit
// for bit.
double PiecesArea(const std::vector<LevelPiece>& pieces) {
  double area = 0.0;
  for (const LevelPiece& piece : pieces) area += piece.poly.Area();
  return area;
}

Box PiecesBoundingBox(const std::vector<LevelPiece>& pieces) {
  Box box = pieces[0].poly.BoundingBox();
  for (size_t i = 1; i < pieces.size(); ++i) {
    const Box b = pieces[i].poly.BoundingBox();
    box = box.Including(b.lo).Including(b.hi);
  }
  return box;
}

// Margin scale of a domain: the pruning margin (scale * 1e-6) must exceed
// the boundary-extraction probe nudge (region scale * 1e-7, and the region
// is contained in the domain), so a pruned line can never flip an in_region
// probe — see the no-op argument in DESIGN.md "Hot path & complexity".
double DomainScale(const Box& box) {
  return std::max({1.0, std::abs(box.lo.x), std::abs(box.lo.y),
                   std::abs(box.hi.x), std::abs(box.hi.y)});
}

// True when every point within `margin` of `box` lies strictly on the
// negative side of `line`. Side() is linear, so checking the four corners
// against -margin * |normal| suffices. Such a line splits nothing (every
// piece is inside the box) and contributes nothing to any boundary probe
// (probes stay within the nudge < margin of the region), so skipping it
// leaves the result bit-identical.
bool NegativeWithMargin(const Line& line, const Box& box, double margin) {
  const double lim = -margin * Norm(line.normal);
  return line.Side(box.lo) <= lim && line.Side(box.hi) <= lim &&
         line.Side({box.lo.x, box.hi.y}) <= lim &&
         line.Side({box.hi.x, box.lo.y}) <= lim;
}

double FarthestCornerDistance(const Box& box, const Vec2& p) {
  return std::sqrt(std::max(
      {SquaredDistance(p, box.lo), SquaredDistance(p, box.hi),
       SquaredDistance(p, {box.lo.x, box.hi.y}),
       SquaredDistance(p, {box.hi.x, box.lo.y})}));
}

// Assembles a TopkRegion from surviving pieces: area accumulation plus
// boundary extraction against the active line set.
TopkRegion FinalizeRegion(std::vector<LevelPiece> pieces,
                          const std::vector<Line>& lines,
                          const ConvexPolygon& domain, int k) {
  TopkRegion region;
  region.area = PiecesArea(pieces);
  region.pieces.reserve(pieces.size());
  for (LevelPiece& piece : pieces) {
    region.pieces.push_back(std::move(piece.poly));
  }
  if (region.pieces.empty()) return region;

  // --- Boundary extraction: cancel interior shared edges. ---
  const Box rbox = region.BoundingBox();
  const double scale =
      std::max({1.0, std::abs(rbox.lo.x), std::abs(rbox.lo.y),
                std::abs(rbox.hi.x), std::abs(rbox.hi.y)});
  const double grid = scale * 1e-9;
  const double len_eps = scale * 1e-12;

  struct EdgeRec {
    Segment seg;
    int count = 0;
  };
  std::unordered_map<EdgeKey, EdgeRec, EdgeKeyHash> edges;
  for (const ConvexPolygon& piece : region.pieces) {
    const auto& vs = piece.vertices();
    for (size_t i = 0; i < vs.size(); ++i) {
      const Vec2& a = vs[i];
      const Vec2& b = vs[(i + 1) % vs.size()];
      if (Distance(a, b) <= len_eps) continue;
      const EdgeKey key = UndirectedKey(Quantize(a, grid), Quantize(b, grid));
      auto [it, inserted] = edges.try_emplace(key, EdgeRec{Segment(a, b), 0});
      it->second.count += 1;
    }
  }

  // Robust second filter: an edge is on the boundary iff nudging its
  // midpoint to the two sides gives different membership. This corrects the
  // rare case where adjacent pieces subdivide a shared edge differently and
  // the hash-cancellation leaves both halves behind.
  const double nudge = scale * 1e-7;
  auto in_region = [&](const Vec2& p) {
    if (!domain.Contains(p, 0.0)) return false;
    int count = 0;
    for (const Line& line : lines) {
      if (line.Side(p) > 0 && ++count >= k) return false;
    }
    return true;
  };
  for (auto& [key, rec] : edges) {
    if (rec.count != 1) continue;  // interior (shared) edge
    const Vec2 mid = rec.seg.Midpoint();
    const Vec2 n = Normalized(Perp(rec.seg.b - rec.seg.a));
    const bool side1 = in_region(mid + n * nudge);
    const bool side2 = in_region(mid - n * nudge);
    if (side1 != side2) region.boundary_edges.push_back(rec.seg);
  }

  return region;
}

// Shared pruned clip loop; returns the surviving pieces. `half_dists`,
// when given, holds for each line a lower bound on its distance to `focal`
// (d(t,o)/2 for bisectors) in ascending order: once a line's bound exceeds
// the farthest live corner plus the margin, every remaining line is
// prunable and the loop breaks. `active`, when given, receives every line
// the loop applied — the set boundary extraction probes against.
std::vector<LevelPiece> ClipPruned(const std::vector<Line>& lines,
                                   const ConvexPolygon& domain, int k,
                                   const Vec2* focal,
                                   const std::vector<double>* half_dists,
                                   std::vector<Line>* active) {
  LBSAGG_CHECK_GE(k, 1);
  LBSAGG_CHECK(!domain.IsEmpty());

  std::vector<LevelPiece> pieces;
  pieces.push_back({domain, 0});
  std::vector<LevelPiece> scratch;
  const double area_eps = domain.Area() * 1e-14;

  Box bbox = domain.BoundingBox();
  const double margin = DomainScale(bbox) * 1e-6;
  double r_far = focal ? FarthestCornerDistance(bbox, *focal) : 0.0;
  bool dirty = false;

  for (size_t i = 0; i < lines.size(); ++i) {
    if (dirty) {
      bbox = PiecesBoundingBox(pieces);
      if (focal) r_far = FarthestCornerDistance(bbox, *focal);
      dirty = false;
    }
    if (half_dists && (*half_dists)[i] > r_far + margin) break;
    if (NegativeWithMargin(lines[i], bbox, margin)) continue;
    if (active) active->push_back(lines[i]);
    if (ApplyLine(pieces, scratch, lines[i], k, area_eps)) dirty = true;
    if (pieces.empty()) break;
  }
  return pieces;
}

TopkRegion LevelRegionPruned(const std::vector<Line>& lines,
                             const ConvexPolygon& domain, int k,
                             const Vec2* focal,
                             const std::vector<double>* half_dists) {
  std::vector<Line> active;
  active.reserve(lines.size());
  std::vector<LevelPiece> pieces =
      ClipPruned(lines, domain, k, focal, half_dists, &active);
  return FinalizeRegion(std::move(pieces), active, domain, k);
}

}  // namespace

int RankAt(const Vec2& q, const Vec2& focal, const std::vector<Vec2>& others) {
  const double d2 = SquaredDistance(q, focal);
  int rank = 0;
  for (const Vec2& o : others) {
    if (SquaredDistance(q, o) < d2) ++rank;
  }
  return rank;
}

std::vector<Vec2> TopkRegion::BoundaryVertices() const {
  if (boundary_edges.empty()) return {};
  double scale = 1.0;
  for (const Segment& s : boundary_edges) {
    scale = std::max({scale, std::abs(s.a.x), std::abs(s.a.y),
                      std::abs(s.b.x), std::abs(s.b.y)});
  }
  const double grid = scale * 1e-9;
  // A boundary has about as many vertices as edges, so a linear scan of the
  // keys seen so far is cheaper than a hash set.
  std::vector<PointKey> seen;
  std::vector<Vec2> vertices;
  seen.reserve(boundary_edges.size());
  vertices.reserve(boundary_edges.size());
  for (const Segment& s : boundary_edges) {
    for (const Vec2& p : {s.a, s.b}) {
      const PointKey key = Quantize(p, grid);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      vertices.push_back(p);
    }
  }
  return vertices;
}

Vec2 TopkRegion::SamplePoint(Rng& rng) const {
  LBSAGG_CHECK(!pieces.empty());
  std::vector<double> areas(pieces.size());
  for (size_t i = 0; i < pieces.size(); ++i) areas[i] = pieces[i].Area();
  const size_t idx = rng.Categorical(areas);
  return pieces[idx].SamplePoint(rng);
}

bool TopkRegion::Contains(const Vec2& p, double eps) const {
  for (const ConvexPolygon& piece : pieces) {
    if (piece.Contains(p, eps)) return true;
  }
  return false;
}

Box TopkRegion::BoundingBox() const {
  LBSAGG_CHECK(!pieces.empty());
  Box box = pieces[0].BoundingBox();
  for (size_t i = 1; i < pieces.size(); ++i) {
    const Box b = pieces[i].BoundingBox();
    box = box.Including(b.lo).Including(b.hi);
  }
  return box;
}

TopkRegion ComputeLevelRegionFromLines(const std::vector<Line>& lines,
                                       const Box& box, int k) {
  return ComputeLevelRegionFromLines(lines, ConvexPolygon::FromBox(box), k);
}

TopkRegion ComputeLevelRegionFromLines(const std::vector<Line>& lines,
                                       const ConvexPolygon& domain, int k) {
  return LevelRegionPruned(lines, domain, k, /*focal=*/nullptr,
                           /*half_dists=*/nullptr);
}

TopkRegion ComputeLevelRegionFromLinesUnpruned(const std::vector<Line>& lines,
                                               const ConvexPolygon& domain,
                                               int k) {
  LBSAGG_CHECK_GE(k, 1);
  LBSAGG_CHECK(!domain.IsEmpty());

  std::vector<LevelPiece> pieces;
  pieces.push_back({domain, 0});
  std::vector<LevelPiece> scratch;
  const double area_eps = domain.Area() * 1e-14;

  for (const Line& line : lines) {
    ApplyLine(pieces, scratch, line, k, area_eps);
    if (pieces.empty()) break;
  }
  return FinalizeRegion(std::move(pieces), lines, domain, k);
}

TopkRegion ComputeTopkRegion(const Vec2& focal,
                             const std::vector<Vec2>& others, const Box& box,
                             int k) {
  return ComputeTopkRegion(focal, others, ConvexPolygon::FromBox(box), k);
}

namespace {

// Bisectors of (focal, others), nearest first, with each line's distance to
// the focal point (half the point distance) alongside. Near bisectors prune
// pieces earliest and keep the live piece count small; the ascending
// half-distances feed the early break in LevelRegionPruned. Each point's d²
// to the focal point is computed once and kept as its sort key. std::sort's
// permutation, the order of exact ties included, is a function of its
// comparison outcomes alone, so it is that of comparing d² (and the tie
// order is pinned by topk_region_test: a stable sort or a merge into a
// kept list would change it). The half-distance 0.5·√d² is
// 0.5·Distance(focal, o) bit for bit: focal − o is the exact negation of
// o − focal.
void SortedBisectors(const Vec2& focal, const std::vector<Vec2>& others,
                     std::vector<Line>& lines,
                     std::vector<double>& half_dists) {
  struct Keyed {
    double d2;
    Vec2 p;
  };
  std::vector<Keyed> sorted;
  sorted.reserve(others.size());
  for (const Vec2& o : others) {
    const double d2 = SquaredDistance(o, focal);
    if (d2 > 0.0) sorted.push_back({d2, o});
  }
  const auto nearer = [](const Keyed& a, const Keyed& b) {
    return a.d2 < b.d2;
  };
  // History seeds arrive nearest first, and a strictly ascending input is
  // the only order any sort can return. So only an input with an inversion
  // or a tie is sorted, exactly as before.
  if (std::adjacent_find(sorted.begin(), sorted.end(),
                         [&](const Keyed& a, const Keyed& b) {
                           return !nearer(a, b);
                         }) != sorted.end()) {
    std::sort(sorted.begin(), sorted.end(), nearer);
  }

  lines.reserve(sorted.size());
  half_dists.reserve(sorted.size());
  for (const Keyed& o : sorted) {
    lines.push_back(Line::Bisector(focal, o.p));  // Side < 0 <=> closer to t
    half_dists.push_back(0.5 * std::sqrt(o.d2));
  }
}

}  // namespace

TopkRegion ComputeTopkRegion(const Vec2& focal,
                             const std::vector<Vec2>& others,
                             const ConvexPolygon& domain, int k) {
  std::vector<Line> lines;
  std::vector<double> half_dists;
  SortedBisectors(focal, others, lines, half_dists);
  return LevelRegionPruned(lines, domain, k, &focal, &half_dists);
}

double ComputeTopkRegionArea(const Vec2& focal,
                             const std::vector<Vec2>& others, const Box& box,
                             int k) {
  std::vector<Line> lines;
  std::vector<double> half_dists;
  SortedBisectors(focal, others, lines, half_dists);
  return PiecesArea(ClipPruned(lines, ConvexPolygon::FromBox(box), k, &focal,
                               &half_dists, /*active=*/nullptr));
}

TopkRegion ComputeTopkRegionUnpruned(const Vec2& focal,
                                     const std::vector<Vec2>& others,
                                     const ConvexPolygon& domain, int k) {
  std::vector<Line> lines;
  std::vector<double> half_dists;
  SortedBisectors(focal, others, lines, half_dists);
  return ComputeLevelRegionFromLinesUnpruned(lines, domain, k);
}

ConvexPolygon InscribedCirclePolygon(const Vec2& center, double radius,
                                     int sides) {
  LBSAGG_CHECK_GE(sides, 8);
  LBSAGG_CHECK_GT(radius, 0.0);
  std::vector<Vec2> vertices;
  vertices.reserve(sides);
  for (int i = 0; i < sides; ++i) {
    const double a = 2.0 * M_PI * i / sides;
    vertices.push_back(center + Vec2{std::cos(a), std::sin(a)} * radius);
  }
  return ConvexPolygon(std::move(vertices));
}

ConvexPolygon ClipToDisc(ConvexPolygon domain, const Vec2& center,
                         double radius) {
  const ConvexPolygon disc = InscribedCirclePolygon(center, radius);
  for (size_t i = 0; i < disc.size() && !domain.IsEmpty(); ++i) {
    const Vec2& a = disc.vertices()[i];
    const Vec2& b = disc.vertices()[(i + 1) % disc.size()];
    // The disc polygon is CCW, so its interior is Side > 0 of
    // Through(a, b); orient the half-plane to keep it.
    domain = domain.Clip(HalfPlane(Line::Through(b, a)));
  }
  return domain;
}

}  // namespace lbsagg
