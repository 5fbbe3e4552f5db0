#include "workload/scenarios.h"

#include "util/check.h"
#include "workload/attribute_models.h"
#include "workload/generators.h"

namespace lbsagg {

UsaScenario BuildUsaScenario(const UsaOptions& options) {
  LBSAGG_CHECK_GE(options.num_pois, 10);
  Rng rng(options.seed);
  const Box box({0.0, 0.0}, {4400.0, 2600.0});

  Schema schema;
  UsaColumns cols;
  cols.category = schema.AddColumn("category", AttrType::kString);
  cols.name = schema.AddColumn("name", AttrType::kString);
  cols.rating = schema.AddColumn("rating", AttrType::kDouble);
  cols.enrollment = schema.AddColumn("enrollment", AttrType::kDouble);
  cols.open_sunday = schema.AddColumn("open_sunday", AttrType::kBool);
  cols.popularity = schema.AddColumn("popularity", AttrType::kDouble);

  auto dataset = std::make_unique<Dataset>(box, schema);
  dataset->Reserve(options.num_pois);

  const std::vector<ClusterSpec> cities =
      MakeZipfClusters(options.num_cities, box, options.zipf_s,
                       /*base_sigma=*/45.0, rng);
  const std::vector<Vec2> positions = GenerateClustered(
      options.num_pois, box, cities, options.rural_fraction, rng);

  for (int i = 0; i < options.num_pois; ++i) {
    const PoiCategory category = SampleCategory(rng);
    const bool rated = category == PoiCategory::kRestaurant ||
                       category == PoiCategory::kCafe;
    std::vector<AttrValue> values(6);
    values[cols.category] = CategoryName(category);
    values[cols.name] =
        SamplePoiName(category, i, options.starbucks_fraction, rng);
    values[cols.rating] = rated ? SampleRating(rng) : 0.0;
    values[cols.enrollment] =
        category == PoiCategory::kSchool ? SampleEnrollment(rng) : 0.0;
    values[cols.open_sunday] = SampleOpenSunday(rng);
    values[cols.popularity] = SamplePopularity(rng);
    dataset->Add(positions[i], std::move(values));
  }
  dataset->JitterDuplicates(rng, 1e-7);

  CensusGrid census =
      CensusGrid::FromPoints(box, options.census_nx, options.census_ny,
                             dataset->Positions(), options.census_noise, rng);
  return UsaScenario{std::move(dataset), std::move(census), cols};
}

TupleFilter CategoryIs(const UsaColumns& cols, const std::string& category) {
  const int col = cols.category;
  return [col, category](const Tuple& t) {
    return t.values.String(col) == category;
  };
}

TupleFilter NameIs(const UsaColumns& cols, const std::string& name) {
  const int col = cols.name;
  return [col, name](const Tuple& t) { return t.values.String(col) == name; };
}

TupleFilter OpenSunday(const UsaColumns& cols) {
  const int col = cols.open_sunday;
  return [col](const Tuple& t) { return std::get<bool>(t.values[col]); };
}

ChinaScenario BuildChinaScenario(const ChinaOptions& options) {
  LBSAGG_CHECK_GE(options.num_users, 10);
  Rng rng(options.seed);
  const Box box({0.0, 0.0}, {5000.0, 3500.0});

  Schema schema;
  ChinaColumns cols;
  cols.gender = schema.AddColumn("gender", AttrType::kString);
  cols.male_indicator = schema.AddColumn("male", AttrType::kDouble);

  auto dataset = std::make_unique<Dataset>(box, schema);
  dataset->Reserve(options.num_users);

  const std::vector<ClusterSpec> cities =
      MakeZipfClusters(options.num_cities, box, options.zipf_s,
                       /*base_sigma=*/40.0, rng);
  const std::vector<Vec2> positions = GenerateClustered(
      options.num_users, box, cities, options.rural_fraction, rng);

  for (int i = 0; i < options.num_users; ++i) {
    std::vector<AttrValue> values(2);
    const std::string gender = SampleGender(options.male_fraction, rng);
    values[cols.male_indicator] = gender == "M" ? 1.0 : 0.0;
    values[cols.gender] = gender;
    dataset->Add(positions[i], std::move(values));
  }
  dataset->JitterDuplicates(rng, 1e-7);

  CensusGrid census =
      CensusGrid::FromPoints(box, options.census_nx, options.census_ny,
                             dataset->Positions(), options.census_noise, rng);
  return ChinaScenario{std::move(dataset), std::move(census), cols};
}

TupleFilter GenderIs(const ChinaColumns& cols, const std::string& gender) {
  const int col = cols.gender;
  return [col, gender](const Tuple& t) {
    return t.values.String(col) == gender;
  };
}

}  // namespace lbsagg
