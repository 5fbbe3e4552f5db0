#include "engine/nno_resolver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "engine/resolver_state.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace engine {

NnoProbeResolver::NnoProbeResolver(LrClient* client, NnoOptions options)
    : client_(client),
      options_(options),
      rng_(options.seed),
      growth_rounds_counter_(
          obs::GetCounter(options.registry, "estimator.nno.growth_rounds")),
      mc_probes_counter_(
          obs::GetCounter(options.registry, "estimator.nno.mc_probes")),
      mc_hits_counter_(
          obs::GetCounter(options.registry, "estimator.nno.mc_hits")),
      tracer_(options.tracer) {
  LBSAGG_CHECK(client_ != nullptr);
  LBSAGG_CHECK_GE(options_.ring_points, 3);
  LBSAGG_CHECK_GE(options_.area_samples, 1);
}

double NnoProbeResolver::EstimateCellArea(int id, const Vec2& pos) {
  const Box& box = client_->region();

  // Grow a disc around t until a probe ring no longer returns t anywhere —
  // heuristic containment of V(t), as in the bias-prone prior approach.
  double radius =
      options_.init_radius_factor * 1e-4 * Distance(box.lo, box.hi);
  for (int round = 0; round < options_.max_growth_rounds; ++round) {
    ++diagnostics_.growth_rounds;
    growth_rounds_counter_.Add(1);
    bool any_hit = false;
    for (int i = 0; i < options_.ring_points; ++i) {
      const double angle = 2.0 * M_PI * (i + 0.5 * (round % 2)) /
                           options_.ring_points;
      const Vec2 probe =
          box.Clamp(pos + Vec2{std::cos(angle), std::sin(angle)} * radius);
      const std::vector<LrClient::Item> items = client_->Query(probe);
      if (!items.empty() && items.front().id == id) {
        any_hit = true;
        break;
      }
    }
    if (!any_hit) break;
    radius *= 2.0;
  }

  // Multi-scale Monte-Carlo area estimate: membership probes in dyadic
  // annuli from `radius` down, so the estimate keeps relative precision
  // whether the cell fills the disc or only its very center. The estimate
  // of |V(t)| is (roughly) unbiased; the estimator 1/|V̂| is not — the
  // inherent bias of [10] that LR-LBS-AGG eliminates.
  constexpr int kLevels = 8;
  const int per_level = std::max(2, options_.area_samples / kLevels);
  double area = 0.0;
  double outer = radius;
  for (int level = 0; level < kLevels; ++level) {
    const double inner = outer * 0.5;
    // The membership probes of one annulus are mutually independent, so
    // they go through the client's batch path — pipelined across the
    // dispatcher's workers when one is attached, with the exact same
    // probe sequence, accounting, and result pages either way. All rng
    // draws happen up front, in the sequential order.
    std::vector<Vec2> probes;
    probes.reserve(per_level);
    for (int i = 0; i < per_level; ++i) {
      // Uniform in the annulus (inner, outer].
      const double u = rng_.Uniform01();
      const double r =
          std::sqrt(inner * inner + u * (outer * outer - inner * inner));
      const double angle = rng_.Uniform(0.0, 2.0 * M_PI);
      const Vec2 probe = pos + Vec2{std::cos(angle), std::sin(angle)} * r;
      if (!box.Contains(probe)) continue;  // free: outside the region
      probes.push_back(probe);
    }
    int hits = 0;
    for (const std::vector<LrClient::Item>& items :
         client_->QueryBatch(probes)) {
      if (!items.empty() && items.front().id == id) ++hits;
    }
    diagnostics_.mc_probes += probes.size();
    diagnostics_.mc_hits += static_cast<uint64_t>(hits);
    mc_probes_counter_.Add(probes.size());
    mc_hits_counter_.Add(static_cast<uint64_t>(hits));
    const double annulus = M_PI * (outer * outer - inner * inner);
    if (per_level > 0) {
      // The out-of-box share of the annulus contributes no area.
      area += annulus * hits / per_level;
    }
    outer = inner;
  }
  // The innermost disc is t's immediate neighborhood: count it as owned.
  area += M_PI * outer * outer;
  return area;
}

void NnoProbeResolver::ResolveRound(const EvidenceDemand& demand,
                                    EvidenceStore* store) {
  obs::ScopedSpan round_span(tracer_, "estimator.round", "estimator");
  ++diagnostics_.rounds;
  const Box& box = client_->region();
  const Vec2 q = box.SamplePoint(rng_);
  store->BeginRound(q);
  const std::vector<LrClient::Item> items = client_->Query(q);
  if (!items.empty()) {
    // Top-1 only — the remaining k-1 results are discarded by this method.
    const LrClient::Item& top = items.front();
    if (demand.WantsProbeTuple(*client_, top.id, top.location)) {
      const uint64_t queries_before = client_->queries_used();
      double area = 0.0;
      {
        obs::ScopedSpan cell_span(tracer_, "estimator.cell", "estimator");
        area = EstimateCellArea(top.id, top.location);
      }
      Observation obs;
      obs.tuple_id = top.id;
      obs.rank = 1;
      obs.h = 1;
      obs.location = top.location;
      obs.has_location = true;
      obs.weight_form = WeightForm::kInverseProbability;
      obs.weight = box.Area() / area;
      obs.exact = false;  // heuristic disc growth + Monte-Carlo membership
      obs.cost = client_->queries_used() - queries_before;
      store->Append(obs);
    }
  }
  store->EndRound(client_->queries_used());
}

std::string NnoProbeResolver::diagnostics_json() const {
  JsonWriter json;
  json.BeginObject()
      .KV("resolver", "nno")
      .KV("rounds", static_cast<uint64_t>(diagnostics_.rounds))
      .KV("growth_rounds", diagnostics_.growth_rounds)
      .KV("mc_probes", diagnostics_.mc_probes)
      .KV("mc_hits", diagnostics_.mc_hits)
      .EndObject();
  return json.TakeString();
}

void NnoProbeResolver::SaveState(std::string* out) const {
  BinaryWriter w(out);
  SaveResolverHeader(&w, kNnoResolverTag);
  SaveRngState(&w, rng_);
  w.PutU64(diagnostics_.rounds);
  w.PutU64(diagnostics_.growth_rounds);
  w.PutU64(diagnostics_.mc_probes);
  w.PutU64(diagnostics_.mc_hits);
}

bool NnoProbeResolver::RestoreState(std::string_view blob) {
  BinaryReader r(blob);
  if (!CheckResolverHeader(&r, kNnoResolverTag)) return false;
  if (!RestoreRngState(&r, &rng_)) return false;
  uint64_t rounds;
  if (!r.GetU64(&rounds) || !r.GetU64(&diagnostics_.growth_rounds) ||
      !r.GetU64(&diagnostics_.mc_probes) || !r.GetU64(&diagnostics_.mc_hits)) {
    return false;
  }
  diagnostics_.rounds = rounds;
  return r.ok() && r.remaining() == 0;
}

}  // namespace engine
}  // namespace lbsagg
