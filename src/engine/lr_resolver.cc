#include "engine/lr_resolver.h"

#include <algorithm>
#include <vector>

#include "engine/resolver_state.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace lbsagg {
namespace engine {

namespace {

// One observability pointer instruments the whole stack: the resolver's
// registry flows into the cell computer unless the caller pinned a
// different plane there explicitly.
LrCellOptions PropagateRegistry(LrCellOptions cell,
                                obs::MetricsRegistry* registry) {
  if (cell.registry == nullptr) cell.registry = registry;
  return cell;
}

}  // namespace

LrCellResolver::LrCellResolver(LrClient* client, const QuerySampler* sampler,
                               LrAggOptions options)
    : client_(client),
      sampler_(sampler),
      options_(options),
      cell_computer_(client, &history_, sampler,
                     PropagateRegistry(options.cell, options.registry)),
      rng_(options.seed),
      cells_exact_counter_(
          obs::GetCounter(options.registry, "estimator.lr.cells_exact")),
      cells_mc_counter_(
          obs::GetCounter(options.registry, "estimator.lr.cells_monte_carlo")),
      ht_weight_hist_(obs::GetHistogram(options.registry,
                                        "estimator.lr.ht_weight",
                                        obs::DecadeBounds(1.0, 1e9))),
      tracer_(options.tracer) {
  LBSAGG_CHECK(client_ != nullptr);
  LBSAGG_CHECK(sampler_ != nullptr);
  if (!options_.adaptive_h) {
    LBSAGG_CHECK_GE(options_.fixed_h, 1);
  }
}

int LrCellResolver::ChooseH(int id, const Vec2& pos) {
  const int k = client_->k();
  if (!options_.adaptive_h) return std::min(options_.fixed_h, k);
  if (k == 1) return 1;
  const Box& box = client_->region();
  const double lambda0 = options_.lambda0_fraction * box.Area();
  // λ_h is non-decreasing in h: scan upward and stop at the first bound
  // exceeding λ0. Almost every call stops at λ_2 > λ0 (h = 1), and the
  // history mostly settles that from a region inside the top-2 cell
  // without building the cell (DESIGN §4.6). Past λ_2 the scan computes
  // each λ_h.
  if (history_.TopTwoCellAreaExceeds(id, pos, box, lambda0)) return 1;
  int chosen = 2;
  for (int h = 3; h <= k; ++h) {
    if (history_.UpperBoundCellArea(id, pos, box, h) > lambda0) break;
    chosen = h;
  }
  return chosen;
}

void LrCellResolver::ResolveRound(const EvidenceDemand& demand,
                                  EvidenceStore* store) {
  obs::ScopedSpan round_span(tracer_, "estimator.round", "estimator");
  const Vec2 q = sampler_->Sample(rng_);
  store->BeginRound(q);
  std::vector<LrClient::Item> items = client_->Query(q);

  // §5.3: services with non-distance ranking (e.g. Google Places
  // "prominence") can reorder results, but an LR interface always returns
  // locations — re-sorting by actual distance restores the nearest-neighbor
  // semantics every cell argument relies on. A no-op for plain distance
  // ranking.
  std::stable_sort(items.begin(), items.end(),
                   [](const LrClient::Item& a, const LrClient::Item& b) {
                     return a.distance < b.distance;
                   });

  // Decide h for every wanted tuple *before* ingesting the new locations:
  // Algorithm 4 derives h from history alone, keeping the inclusion event
  // independent of the current query's outcome. A tuple no aggregate wants
  // is dropped whatever its h, so it gets h = 0 and never pays for the
  // bound; the demand gate reads only the returned tuple.
  std::vector<int> chosen_h(items.size(), 0);
  for (size_t i = 0; i < items.size(); ++i) {
    if (demand.WantsLrTuple(*client_, items[i].id, items[i].location)) {
      chosen_h[i] = ChooseH(items[i].id, items[i].location);
    }
  }
  for (const LrClient::Item& item : items) {
    history_.Record(item.id, item.location);
  }

  for (size_t i = 0; i < items.size(); ++i) {
    const LrClient::Item& item = items[i];
    const int rank = static_cast<int>(i) + 1;
    const int h = chosen_h[i];
    // The sample "q ∈ V_h(t)" occurred iff t ranks within the top h, so a
    // tuple only contributes when rank <= h (see DESIGN.md on the Eq. (2)
    // inclusion condition). Unwanted tuples (h = 0) fail this too.
    if (rank > h) continue;

    const uint64_t queries_before = client_->queries_used();
    LrCellComputer::Result cell;
    {
      obs::ScopedSpan cell_span(tracer_, "estimator.cell", "estimator");
      cell = cell_computer_.ComputeInverseProbability(item.id, item.location,
                                                      h, rng_);
    }
    diagnostics_.cell_queries += cell.queries;
    if (cell.exact) {
      ++diagnostics_.cells_exact;
      cells_exact_counter_.Add(1);
    } else {
      ++diagnostics_.cells_monte_carlo;
      cells_mc_counter_.Add(1);
    }
    ht_weight_hist_.Observe(cell.inv_probability);
    ++diagnostics_.h_used[std::min<size_t>(h, 7)];

    Observation obs;
    obs.tuple_id = item.id;
    obs.rank = rank;
    obs.h = h;
    obs.location = item.location;
    obs.has_location = true;
    obs.weight_form = WeightForm::kInverseProbability;
    obs.weight = cell.inv_probability;
    obs.exact = cell.exact;
    obs.cost = client_->queries_used() - queries_before;
    store->Append(obs);
  }

  ++diagnostics_.rounds;
  store->EndRound(client_->queries_used());
}

std::string LrCellResolver::diagnostics_json() const {
  JsonWriter json;
  json.BeginObject()
      .KV("resolver", "lr")
      .KV("rounds", static_cast<uint64_t>(diagnostics_.rounds))
      .KV("cells_exact", static_cast<uint64_t>(diagnostics_.cells_exact))
      .KV("cells_monte_carlo",
          static_cast<uint64_t>(diagnostics_.cells_monte_carlo))
      .KV("cell_queries", diagnostics_.cell_queries)
      .Key("h_used")
      .BeginArray();
  for (size_t i = 0; i < 8; ++i) {
    json.Value(static_cast<uint64_t>(diagnostics_.h_used[i]));
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

void LrCellResolver::SaveState(std::string* out) const {
  BinaryWriter w(out);
  SaveResolverHeader(&w, kLrResolverTag);
  SaveRngState(&w, rng_);
  const std::vector<std::pair<int, Vec2>> entries = history_.Entries();
  w.PutU64(entries.size());
  for (const auto& [id, pos] : entries) {
    w.PutI32(id);
    w.PutF64(pos.x);
    w.PutF64(pos.y);
  }
  w.PutU64(diagnostics_.rounds);
  w.PutU64(diagnostics_.cells_exact);
  w.PutU64(diagnostics_.cells_monte_carlo);
  w.PutU64(diagnostics_.cell_queries);
  for (size_t h : diagnostics_.h_used) w.PutU64(h);
}

bool LrCellResolver::RestoreState(std::string_view blob) {
  LBSAGG_CHECK_EQ(history_.size(), 0u)
      << "RestoreState requires a fresh resolver";
  BinaryReader r(blob);
  if (!CheckResolverHeader(&r, kLrResolverTag)) return false;
  if (!RestoreRngState(&r, &rng_)) return false;
  uint64_t entries = 0;
  if (!r.GetU64(&entries)) return false;
  for (uint64_t i = 0; i < entries; ++i) {
    int32_t id;
    Vec2 pos;
    if (!r.GetI32(&id) || !r.GetF64(&pos.x) || !r.GetF64(&pos.y)) return false;
    // Replaying Record() in insertion order rebuilds the same tree: each
    // insertion's place is a pure function of the entries before it.
    history_.Record(id, pos);
  }
  uint64_t rounds, exact, mc, cell_queries;
  if (!r.GetU64(&rounds) || !r.GetU64(&exact) || !r.GetU64(&mc) ||
      !r.GetU64(&cell_queries)) {
    return false;
  }
  diagnostics_.rounds = rounds;
  diagnostics_.cells_exact = exact;
  diagnostics_.cells_monte_carlo = mc;
  diagnostics_.cell_queries = cell_queries;
  for (size_t& h : diagnostics_.h_used) {
    uint64_t v;
    if (!r.GetU64(&v)) return false;
    h = v;
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace engine
}  // namespace lbsagg
