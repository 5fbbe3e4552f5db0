#ifndef LBSAGG_ENGINE_ENGINE_H_
#define LBSAGG_ENGINE_ENGINE_H_

// The estimation engine (DESIGN.md §4.9): wires one acquisition-layer
// resolver, the append-only evidence store, and N aggregation-layer
// consumers into a single query-budget loop.
//
//   engine::LrCellResolver resolver(&client, &sampler, options);
//   engine::EstimationEngine engine(&resolver);
//   auto* count = engine.AddAggregate(AggregateSpec::Count());
//   auto* sum   = engine.AddAggregate(AggregateSpec::Sum(col, "SUM(x)"));
//   auto* avg   = engine.AddAggregate(AggregateSpec::Avg(col, "AVG(x)"));
//   RunEngine(&engine, {.budget = budget});  // the run loop, core/runner.h
//
// Every Step spends interface queries once and every registered aggregate
// folds the same observations — the paper's point that one HT evidence
// stream answers any aggregate (§2.3), turned into architecture.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "engine/aggregate_query.h"
#include "engine/cell_resolver.h"
#include "engine/evidence_store.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace lbsagg {
namespace engine {

struct EngineOptions {
  // Metric plane for the engine.* counters (and the evidence store's
  // engine.evidence.* counters); null lands on
  // obs::MetricsRegistry::Default().
  obs::MetricsRegistry* registry = nullptr;
  // When set, each Step emits an "engine.round" span (with the resolver's
  // "estimator.round" tree and the store's "engine.evidence.round" span
  // nested inside it).
  obs::Tracer* tracer = nullptr;
};

class EstimationEngine {
 public:
  // `resolver` must outlive the engine.
  explicit EstimationEngine(CellResolver* resolver, EngineOptions options = {});

  // Registers one aggregate consumer and returns it (owned by the engine;
  // valid until the engine is destroyed). A consumer registered after
  // rounds have already run replays the existing evidence log first, so its
  // trace covers the whole run — but it only sees the observations the
  // demand *at acquisition time* asked for; tuples every earlier aggregate
  // skipped were never resolved and cannot be replayed.
  AggregateQuery* AddAggregate(const AggregateSpec& spec);

  // One sampling round: the resolver commits one evidence round and every
  // registered aggregate folds it. Requires at least one aggregate.
  void Step();

  // Attaches the durability sink to the evidence store (engine/log/): every
  // round committed from now on is observed by `sink`. Null detaches.
  void AttachSink(EvidenceSink* sink) { store_.set_sink(sink); }

  // Recovery hook: refills the evidence store from a recovered source
  // (sink not notified — the rounds came from the durable log) and folds
  // the restored rounds into any already-registered aggregates, exactly as
  // AddAggregate's replay does for consumers registered later. Requires an
  // empty store; call before or after AddAggregate, not after Step.
  void RestoreEvidence(const EvidenceSource& source);

  uint64_t queries_used() const { return resolver_->queries_used(); }
  const EvidenceStore& evidence() const { return store_; }
  CellResolver* resolver() { return resolver_; }
  const CellResolver* resolver() const { return resolver_; }

  size_t num_aggregates() const { return queries_.size(); }
  AggregateQuery* aggregate(size_t i) { return queries_[i].get(); }
  const AggregateQuery* aggregate(size_t i) const { return queries_[i].get(); }

  // {"resolver":{...},"evidence":{...},"aggregates":N} — the resolver's own
  // diagnostics plus the evidence snapshot, for run reports.
  std::string diagnostics_json() const;

 private:
  void RebuildDemand();

  CellResolver* resolver_;
  EvidenceStore store_;
  std::vector<std::unique_ptr<AggregateQuery>> queries_;
  EvidenceDemand demand_;
  obs::CounterRef rounds_counter_;
  obs::CounterRef replayed_rounds_counter_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace engine
}  // namespace lbsagg

#endif  // LBSAGG_ENGINE_ENGINE_H_
