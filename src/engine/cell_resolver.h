#ifndef LBSAGG_ENGINE_CELL_RESOLVER_H_
#define LBSAGG_ENGINE_CELL_RESOLVER_H_

// The acquisition layer's interface (DESIGN.md §4.9): a CellResolver turns
// one sampled query point into evidence-store observations, spending
// interface queries only on tuples some registered aggregate actually wants
// (the EvidenceDemand). The three implementations — LrCellResolver,
// LnrCellResolver, NnoProbeResolver — are carved out of the pre-engine
// estimator monoliths and preserve their query/rng streams exactly.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregate.h"
#include "engine/evidence_store.h"
#include "geometry/vec2.h"
#include "lbs/client.h"

namespace lbsagg {
namespace engine {

// The union, over all registered aggregates, of the pre-engine estimators'
// "is this tuple worth a cell computation?" gates. With a single registered
// aggregate each Wants* method reproduces the corresponding monolith's skip
// conditions verbatim — that is what keeps single-aggregate engine runs
// bit-identical to the monoliths. With several aggregates a tuple is resolved once if *any*
// of them wants it, which is exactly the budget amortization: the weight is
// aggregate-independent (§2.3), so one resolution serves every consumer.
class EvidenceDemand {
 public:
  EvidenceDemand() = default;
  explicit EvidenceDemand(std::vector<const AggregateSpec*> specs)
      : specs_(std::move(specs)) {}

  bool empty() const { return specs_.empty(); }

  // Any aggregate carries a position condition, so resolvers on rank-only
  // interfaces must localize observed tuples (§4.3).
  bool NeedsLocation() const;

  // LR gate (location-returned interfaces, Algorithm 5): the position
  // condition is evaluated on the returned coordinates, and a COUNT/SUM
  // whose numerator is exactly 0 skips the cell computation.
  bool WantsLrTuple(const LbsClient& client, int id, const Vec2& location) const;

  // LNR gate (rank-only interfaces, §4): only the attribute condition is
  // checked before the cell inference — the location is not returned, so the
  // position condition can only be evaluated after localization.
  bool WantsRankedTuple(const LbsClient& client, int id) const;

  // NNO gate (top-1 probe baseline): the position condition gates the
  // values; any nonzero numerator or denominator makes the tuple worth the
  // area estimate.
  bool WantsProbeTuple(const LbsClient& client, int id,
                       const Vec2& location) const;

 private:
  std::vector<const AggregateSpec*> specs_;
};

// Acquisition-layer interface: one ResolveRound call samples one query
// point, issues the interface queries the demand justifies, and commits
// exactly one round (with zero or more observations) to the store.
class CellResolver {
 public:
  virtual ~CellResolver() = default;

  virtual void ResolveRound(const EvidenceDemand& demand,
                            EvidenceStore* store) = 0;

  // The restricted client the observations' attributes are read through.
  virtual const LbsClient& client() const = 0;

  // Cumulative interface queries (the client's attempt-metered counter).
  virtual uint64_t queries_used() const = 0;

  virtual const char* name() const = 0;

  // Resolver-specific diagnostics as a raw JSON object, for run reports.
  virtual std::string diagnostics_json() const = 0;

  // Checkpoint hooks (engine/log/, DESIGN.md §4.14). SaveState appends an
  // opaque binary blob capturing every mutable bit of acquisition state —
  // the rng stream position, learned caches (history / cell-probability
  // maps), and diagnostics — such that a freshly constructed resolver with
  // the same options, after RestoreState, resolves future rounds
  // bit-identically to the saved one. RestoreState must be called on a
  // fresh resolver (no rounds resolved); it returns false when the blob is
  // malformed or belongs to a different resolver family/version.
  virtual void SaveState(std::string* out) const = 0;
  virtual bool RestoreState(std::string_view blob) = 0;
};

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_CELL_RESOLVER_H_
