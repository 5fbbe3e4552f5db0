// Figure 17: AVG(rating) of restaurants in one metro area (the paper used
// Austin, TX). The region of interest B is the metro bounding box — the
// analyst chooses B, so the service is queried only inside it. AVG is
// estimated as SUM/COUNT (§1.3); ratio estimators converge much faster
// than the absolute aggregates of Figures 14-16.

#include "common/bench_common.h"

int main() {
  using namespace lbsagg;
  using namespace lbsagg::bench;

  BenchConfig config;
  config.budget = 8000;

  UsaOptions uopts;
  uopts.num_pois = 40000;  // national dataset; the metro holds a slice of it
  const UsaScenario usa = BuildUsaScenario(uopts);

  // The metro: a 400x400 km box centered on the densest census cell.
  Vec2 metro_center = usa.dataset->box().Center();
  double best_density = 0.0;
  for (int ix = 0; ix < usa.census.nx(); ++ix) {
    for (int iy = 0; iy < usa.census.ny(); ++iy) {
      if (usa.census.CellDensity(ix, iy) > best_density) {
        best_density = usa.census.CellDensity(ix, iy);
        metro_center = usa.census.CellBox(ix, iy).Center();
      }
    }
  }
  const Box metro(usa.dataset->box().Clamp(metro_center - Vec2{200, 200}),
                  usa.dataset->box().Clamp(metro_center + Vec2{200, 200}));

  // The analyst's region of interest: rebuild the hidden database restricted
  // to the metro (equivalently, every query and every cell is clipped to B).
  Dataset metro_db(metro, usa.dataset->schema());
  for (const Tuple& t : usa.dataset->tuples()) {
    if (metro.Contains(t.pos)) metro_db.Add(t.pos, t.values.ToVector());
  }

  LbsServer server(&metro_db, {.max_k = config.k});
  UniformSampler sampler(metro);

  const int rating = usa.columns.rating;
  const AggregateSpec spec = AggregateSpec::AvgWhere(
      rating, ColumnEquals(usa.columns.category, "restaurant"),
      "AVG(rating) of restaurants");
  const TupleFilter is_restaurant = CategoryIs(usa.columns, "restaurant");
  const double truth =
      metro_db.GroundTruthSum(is_restaurant,
                              [rating](const Tuple& t) {
                                return std::get<double>(t.values[rating]);
                              }) /
      metro_db.GroundTruthCount(is_restaurant);

  const auto traces = SweepEstimators(
      {
          MakeNnoSpec("LR-LBS-NNO", &server, spec, config.k),
          MakeLrSpec("LR-LBS-AGG", &server, &sampler, spec, config.k),
          MakeLnrSpec("LNR-LBS-AGG", &server, &sampler, spec, config.k,
                      DefaultLnrBenchOptions()),
      },
      config.runs, config.budget, config.seed_base);

  PrintCostVersusErrorTable(
      "Figure 17 — query cost vs relative error, AVG(restaurant rating) in "
      "one metro (" +
          std::to_string(metro_db.size()) + " POIs)",
      traces, truth, {0.10, 0.05, 0.03, 0.02, 0.01});
  MaybeWriteRunReport("fig17_avg_ratings", traces);
  return 0;
}
