#ifndef LBSAGG_GEOMETRY_LOC_KEY_H_
#define LBSAGG_GEOMETRY_LOC_KEY_H_

#include <cmath>
#include <cstdint>
#include <cstddef>

#include "geometry/box.h"
#include "geometry/vec2.h"

namespace lbsagg {

// Quantized 2-D location key: the identity of a query/vertex location up to
// a grid resolution. The LR and LNR refinement loops use it to deduplicate
// vertex queries within one cell computation, so every loop agrees on what
// "the same location" means.
struct LocKey {
  int64_t x = 0;
  int64_t y = 0;
  bool operator==(const LocKey&) const = default;
};

// splitmix64 finalizer — full-avalanche 64-bit mix.
inline uint64_t SplitMix64(uint64_t v) {
  v += 0x9e3779b97f4a7c15ull;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

// Hash-combines two 64-bit words through independent splitmix mixes. Unlike
// `x * C ^ y`, every input bit of *both* words avalanches into the result,
// so collinear / axis-aligned key patterns do not collide in buckets.
struct LocKeyHash {
  size_t operator()(const LocKey& k) const {
    const uint64_t hx = SplitMix64(static_cast<uint64_t>(k.x));
    const uint64_t hy = SplitMix64(static_cast<uint64_t>(k.y) ^ 0x6a09e667f3bcc909ull);
    return static_cast<size_t>(hx ^ (hy + 0x9e3779b97f4a7c15ull + (hx << 6) + (hx >> 2)));
  }
};

// Quantizes p onto a grid of pitch `grid`.
inline LocKey MakeLocKey(const Vec2& p, double grid) {
  return {static_cast<int64_t>(std::llround(p.x / grid)),
          static_cast<int64_t>(std::llround(p.y / grid))};
}

// The conventional dedup grid for a service region: ~1e-9 of the coordinate
// scale, the same resolution the refinement loops have always used.
inline double LocKeyGrid(const Box& box, double relative = 1e-9) {
  return std::max({1.0, std::abs(box.hi.x), std::abs(box.hi.y)}) * relative;
}

}  // namespace lbsagg

#endif  // LBSAGG_GEOMETRY_LOC_KEY_H_
