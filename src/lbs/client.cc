#include "lbs/client.h"

#include <algorithm>

#include "lbs/trilateration.h"
#include "util/check.h"

namespace lbsagg {

LbsClient::LbsClient(const LbsServer* server, ClientOptions options,
                     LbsTransport* transport, BatchExecutor* batch)
    : server_(server),
      options_(options),
      transport_(transport),
      batch_(batch),
      k_(std::min(options.k, server->options().max_k)),
      queries_counter_(obs::GetCounter(options.registry, "client.queries")),
      tracer_(options.tracer) {
  LBSAGG_CHECK_GE(options.k, 1);
  if (transport_ == nullptr) transport_ = &direct_.emplace(server);
}

bool LbsClient::HasBudget(uint64_t upcoming) const {
  if (options_.budget == 0) return true;
  return queries_used() + upcoming <= options_.budget;
}

AttrValue LbsClient::Attribute(int id, int col) const {
  const Tuple& t = server_->dataset().tuple(id);
  LBSAGG_CHECK_GE(col, 0);
  LBSAGG_CHECK_LT(static_cast<size_t>(col), t.values.size());
  return t.values[col];
}

double LbsClient::NumericAttribute(int id, int col) const {
  const AttrValue v = Attribute(id, col);
  const double* d = std::get_if<double>(&v);
  LBSAGG_CHECK(d != nullptr) << "column " << schema().name(col)
                             << " is not numeric";
  return *d;
}

std::vector<ServerHit> LbsClient::RawQuery(const Vec2& q) {
  obs::ScopedSpan span(tracer_, "client.query", "client");
  TransportReply reply = transport_->Query(q, k_, filter_);
  ChargeQuery(q, static_cast<uint64_t>(reply.attempts));
  return std::move(reply.hits);
}

std::vector<std::vector<ServerHit>> LbsClient::RawQueryBatch(
    const std::vector<Vec2>& points) {
  std::vector<std::vector<ServerHit>> pages(points.size());
  if (batch_ != nullptr) {
    obs::ScopedSpan span(tracer_, "client.query_batch", "client");
    std::vector<TransportReply> replies =
        batch_->QueryBatch(points, k_, filter_);
    for (size_t i = 0; i < points.size(); ++i) {
      ChargeQuery(points[i], static_cast<uint64_t>(replies[i].attempts));
      pages[i] = std::move(replies[i].hits);
    }
    return pages;
  }
  for (size_t i = 0; i < points.size(); ++i) pages[i] = RawQuery(points[i]);
  return pages;
}

std::vector<LrClient::Item> LrClient::Query(const Vec2& q) {
  const std::vector<ServerHit> hits = RawQuery(q);
  std::vector<Item> items;
  items.reserve(hits.size());
  for (const ServerHit& h : hits) {
    items.push_back({h.tuple_id, server_->EffectivePosition(h.tuple_id),
                     h.distance});
  }
  return items;
}

std::vector<std::vector<LrClient::Item>> LrClient::QueryBatch(
    const std::vector<Vec2>& points) {
  const std::vector<std::vector<ServerHit>> pages = RawQueryBatch(points);
  std::vector<std::vector<Item>> results(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    results[i].reserve(pages[i].size());
    for (const ServerHit& h : pages[i]) {
      results[i].push_back(
          {h.tuple_id, server_->EffectivePosition(h.tuple_id), h.distance});
    }
  }
  return results;
}

std::vector<int> LnrClient::Query(const Vec2& q) {
  const std::vector<ServerHit> hits = RawQuery(q);
  std::vector<int> ids;
  ids.reserve(hits.size());
  for (const ServerHit& h : hits) ids.push_back(h.tuple_id);
  return ids;
}

bool LnrClient::Returns(const Vec2& q, int id) {
  const std::vector<int> ids = Query(q);
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

int LnrClient::Top1(const Vec2& q) {
  const std::vector<int> ids = Query(q);
  return ids.empty() ? -1 : ids.front();
}

std::optional<double> TrilaterationClient::ProbeDistance(const Vec2& p,
                                                         int id) {
  for (const ServerHit& hit : RawQuery(p)) {
    if (hit.tuple_id == id) return hit.distance;
  }
  return std::nullopt;
}

std::vector<LrClient::Item> TrilaterationClient::Query(const Vec2& q) {
  const std::vector<ServerHit> hits = RawQuery(q);
  std::vector<Item> items;
  items.reserve(hits.size());
  for (const ServerHit& h : hits) {
    auto cached = position_cache_.find(h.tuple_id);
    if (cached == position_cache_.end()) {
      // Recover the position from the distances at q and two perpendicular
      // probe offsets (§2.1 trilateration); shrink the offset if the tuple
      // drops out of the top-k at a probe.
      std::optional<Vec2> position;
      double offset = std::max(0.5 * h.distance, 1e-9);
      for (int attempt = 0; attempt < 6 && !position.has_value();
           ++attempt, offset *= 0.5) {
        const Vec2 q1 = q + Vec2{offset, 0.0};
        const std::optional<double> d1 = ProbeDistance(q1, h.tuple_id);
        if (!d1.has_value()) continue;
        const Vec2 q2 = q + Vec2{0.0, offset};
        const std::optional<double> d2 = ProbeDistance(q2, h.tuple_id);
        if (!d2.has_value()) continue;
        const Vec2 centers[3] = {q, q1, q2};
        const double dists[3] = {h.distance, *d1, *d2};
        position = Trilaterate(centers, dists);
      }
      if (h.distance == 0.0) position = q;
      if (!position.has_value()) continue;  // could not pin down: drop
      cached = position_cache_.emplace(h.tuple_id, *position).first;
    }
    items.push_back({h.tuple_id, cached->second, h.distance});
  }
  return items;
}

std::vector<std::vector<LrClient::Item>> TrilaterationClient::QueryBatch(
    const std::vector<Vec2>& points) {
  std::vector<std::vector<Item>> results;
  results.reserve(points.size());
  for (const Vec2& p : points) results.push_back(Query(p));
  return results;
}

}  // namespace lbsagg
