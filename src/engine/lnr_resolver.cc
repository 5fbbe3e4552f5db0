#include "engine/lnr_resolver.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "engine/resolver_state.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace engine {

namespace {

// One observability pointer instruments the whole stack: the resolver's
// registry flows into the cell computer and the localizer (and from there
// into the binary searches) unless the caller pinned a different plane
// there explicitly.
LnrCellOptions PropagateRegistry(LnrCellOptions cell,
                                 obs::MetricsRegistry* registry) {
  if (cell.registry == nullptr) cell.registry = registry;
  return cell;
}

LocalizeOptions PropagateRegistry(LocalizeOptions localize,
                                  obs::MetricsRegistry* registry) {
  localize.cell = PropagateRegistry(localize.cell, registry);
  return localize;
}

}  // namespace

LnrCellResolver::LnrCellResolver(LnrClient* client, const QuerySampler* sampler,
                                 LnrAggOptions options)
    : client_(client),
      sampler_(sampler),
      options_(options),
      cell_computer_(client, PropagateRegistry(options.cell, options.registry)),
      localizer_(client, PropagateRegistry(options.localize, options.registry)),
      rng_(options.seed),
      cells_inferred_counter_(
          obs::GetCounter(options.registry, "estimator.lnr.cells_inferred")),
      cache_hits_counter_(
          obs::GetCounter(options.registry, "estimator.lnr.cache_hits")),
      ht_weight_hist_(obs::GetHistogram(options.registry,
                                        "estimator.lnr.ht_weight",
                                        obs::DecadeBounds(1.0, 1e9))),
      tracer_(options.tracer) {
  LBSAGG_CHECK(client_ != nullptr);
  LBSAGG_CHECK(sampler_ != nullptr);
}

void LnrCellResolver::EmitObservation(int id, int rank, const Vec2& q0,
                                      double probability,
                                      uint64_t queries_before,
                                      const EvidenceDemand& demand,
                                      EvidenceStore* store) {
  LBSAGG_CHECK_GT(probability, 0.0);
  ht_weight_hist_.Observe(1.0 / probability);
  Observation obs;
  obs.tuple_id = id;
  obs.rank = rank;
  obs.h = options_.use_topk_cells ? client_->k() : 1;
  obs.weight_form = WeightForm::kProbability;
  obs.weight = probability;
  obs.exact = true;  // inferred to binary-search precision, not Monte-Carlo
  if (demand.NeedsLocation()) {
    // §4.3: the tuple's location is not returned — infer it to the
    // binary-search precision, then let consumers evaluate their position
    // conditions on it. Localization queries are spent once here and the
    // inferred position is shared by every registered aggregate.
    const std::optional<Vec2> pos = localizer_.Locate(id, q0);
    if (pos.has_value()) {
      obs.location = *pos;
      obs.has_location = true;
    }
  }
  obs.cost = client_->queries_used() - queries_before;
  store->Append(obs);
}

void LnrCellResolver::ResolveRound(const EvidenceDemand& demand,
                                   EvidenceStore* store) {
  obs::ScopedSpan round_span(tracer_, "estimator.round", "estimator");
  const Vec2 q = sampler_->Sample(rng_);
  store->BeginRound(q);
  const std::vector<int> ids = client_->Query(q);

  if (!ids.empty()) {
    if (options_.use_topk_cells && client_->k() > 1) {
      // §4.2: each of the k returned tuples contributes, weighted by its
      // (possibly concave) top-k cell.
      for (size_t i = 0; i < ids.size(); ++i) {
        const int id = ids[i];
        if (!demand.WantsRankedTuple(*client_, id)) {
          continue;  // zero contribution — skip the cell inference
        }
        const uint64_t queries_before = client_->queries_used();
        double p = 0.0;
        if (const auto it = topk_probability_cache_.find(id);
            options_.reuse_cell_probabilities &&
            it != topk_probability_cache_.end()) {
          p = it->second;
          ++diagnostics_.cache_hits;
          cache_hits_counter_.Add(1);
        } else {
          std::optional<LnrCellResult> cell;
          {
            obs::ScopedSpan cell_span(tracer_, "estimator.cell", "estimator");
            cell = cell_computer_.ComputeTopkCell(id, q);
          }
          if (!cell.has_value() || cell->region.IsEmpty()) continue;
          p = sampler_->RegionProbability(cell->region);
          topk_probability_cache_.emplace(id, p);
          ++diagnostics_.cells_inferred;
          cells_inferred_counter_.Add(1);
        }
        if (p <= 0.0) continue;
        EmitObservation(id, static_cast<int>(i) + 1, q, p, queries_before,
                        demand, store);
      }
    } else {
      const int id = ids.front();
      if (demand.WantsRankedTuple(*client_, id)) {
        const uint64_t queries_before = client_->queries_used();
        double p = 0.0;
        if (const auto it = top1_probability_cache_.find(id);
            options_.reuse_cell_probabilities &&
            it != top1_probability_cache_.end()) {
          p = it->second;
          ++diagnostics_.cache_hits;
          cache_hits_counter_.Add(1);
        } else {
          std::optional<LnrCellResult> cell;
          {
            obs::ScopedSpan cell_span(tracer_, "estimator.cell", "estimator");
            cell = cell_computer_.ComputeTop1Cell(id, q);
          }
          if (cell.has_value() && !cell->cell.IsEmpty()) {
            p = sampler_->RegionProbability(cell->cell);
          }
          top1_probability_cache_.emplace(id, p);
          ++diagnostics_.cells_inferred;
          cells_inferred_counter_.Add(1);
        }
        if (p > 0.0) {
          EmitObservation(id, 1, q, p, queries_before, demand, store);
        }
      }
    }
  }

  ++diagnostics_.rounds;
  store->EndRound(client_->queries_used());
}

std::string LnrCellResolver::diagnostics_json() const {
  JsonWriter json;
  json.BeginObject()
      .KV("resolver", "lnr")
      .KV("rounds", static_cast<uint64_t>(diagnostics_.rounds))
      .KV("cells_inferred", static_cast<uint64_t>(diagnostics_.cells_inferred))
      .KV("cache_hits", static_cast<uint64_t>(diagnostics_.cache_hits))
      .EndObject();
  return json.TakeString();
}

namespace {

// Probability caches are persisted sorted by tuple id: unordered_map
// iteration order varies across processes, and checkpoint blobs must be
// byte-stable so repeated checkpoints of the same state hash identically.
void SaveProbabilityCache(BinaryWriter* w,
                          const std::unordered_map<int, double>& cache) {
  std::vector<std::pair<int, double>> sorted(cache.begin(), cache.end());
  std::sort(sorted.begin(), sorted.end());
  w->PutU64(sorted.size());
  for (const auto& [id, p] : sorted) {
    w->PutI32(id);
    w->PutF64(p);
  }
}

bool RestoreProbabilityCache(BinaryReader* r,
                             std::unordered_map<int, double>* cache) {
  uint64_t n = 0;
  if (!r->GetU64(&n)) return false;
  // The count is untrusted: each entry is read before it is stored, so a
  // forged count fails at the end of the blob instead of sizing the table.
  for (uint64_t i = 0; i < n; ++i) {
    int32_t id;
    double p;
    if (!r->GetI32(&id) || !r->GetF64(&p)) return false;
    cache->emplace(id, p);
  }
  return true;
}

}  // namespace

void LnrCellResolver::SaveState(std::string* out) const {
  BinaryWriter w(out);
  SaveResolverHeader(&w, kLnrResolverTag);
  SaveRngState(&w, rng_);
  SaveProbabilityCache(&w, top1_probability_cache_);
  SaveProbabilityCache(&w, topk_probability_cache_);
  w.PutU64(diagnostics_.rounds);
  w.PutU64(diagnostics_.cells_inferred);
  w.PutU64(diagnostics_.cache_hits);
}

bool LnrCellResolver::RestoreState(std::string_view blob) {
  LBSAGG_CHECK(top1_probability_cache_.empty() &&
               topk_probability_cache_.empty())
      << "RestoreState requires a fresh resolver";
  BinaryReader r(blob);
  if (!CheckResolverHeader(&r, kLnrResolverTag)) return false;
  if (!RestoreRngState(&r, &rng_)) return false;
  if (!RestoreProbabilityCache(&r, &top1_probability_cache_)) return false;
  if (!RestoreProbabilityCache(&r, &topk_probability_cache_)) return false;
  uint64_t rounds, inferred, hits;
  if (!r.GetU64(&rounds) || !r.GetU64(&inferred) || !r.GetU64(&hits)) {
    return false;
  }
  diagnostics_.rounds = rounds;
  diagnostics_.cells_inferred = inferred;
  diagnostics_.cache_hits = hits;
  return r.ok() && r.remaining() == 0;
}

}  // namespace engine
}  // namespace lbsagg
