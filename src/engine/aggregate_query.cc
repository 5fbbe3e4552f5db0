#include "engine/aggregate_query.h"

#include "util/check.h"

namespace lbsagg {
namespace engine {

AggregateQuery::AggregateQuery(const AggregateSpec& spec,
                               const LbsClient* client)
    : spec_(spec), client_(client) {
  LBSAGG_CHECK(client_ != nullptr);
}

void AggregateQuery::FoldObservation(const Observation& obs, double* numerator,
                                     double* denominator) const {
  // Position conditions: LR/NNO observations carry the returned
  // coordinates; LNR observations carry the localized position (§4.3) or
  // none when localization failed — which contributes nothing, exactly as
  // the pre-engine estimators skipped it.
  if (spec_.position_condition &&
      (!obs.has_location || !spec_.position_condition(obs.location))) {
    return;
  }
  const double numerator_value = spec_.NumeratorValue(*client_, obs.tuple_id);
  const double denominator_value =
      spec_.DenominatorValue(*client_, obs.tuple_id);

  switch (obs.weight_form) {
    case WeightForm::kInverseProbability:
      // LR gates (Algorithm 5): a tuple with an all-zero contribution, or a
      // zero COUNT/SUM numerator, adds exactly nothing.
      if (numerator_value == 0.0 && denominator_value == 0.0) return;
      if (numerator_value == 0.0 &&
          spec_.kind != AggregateSpec::Kind::kAvg) {
        return;
      }
      *numerator += numerator_value * obs.weight;
      *denominator += denominator_value * obs.weight;
      return;
    case WeightForm::kProbability:
      // LNR arithmetic is value / p — not value * (1/p); the two differ in
      // the last ulp and the engine's contract is bit-identical traces.
      *numerator += numerator_value / obs.weight;
      *denominator += denominator_value / obs.weight;
      return;
  }
}

void AggregateQuery::ConsumeRound(const EvidenceRound& round,
                                  const Observation* observations,
                                  size_t num_observations) {
  double round_numerator = 0.0;
  double round_denominator = 0.0;
  for (size_t i = 0; i < num_observations; ++i) {
    FoldObservation(observations[i], &round_numerator, &round_denominator);
  }
  numerator_.Add(round_numerator);
  denominator_.Add(round_denominator);
  trace_.push_back({round.queries_after, Estimate(), ConfidenceHalfWidth()});
}

double AggregateQuery::Estimate() const {
  if (numerator_.count() == 0) return 0.0;
  if (spec_.kind == AggregateSpec::Kind::kAvg) {
    if (denominator_.mean() == 0.0) return 0.0;
    return numerator_.mean() / denominator_.mean();
  }
  return numerator_.mean();
}

double AggregateQuery::ConfidenceHalfWidth(double z) const {
  return numerator_.ConfidenceHalfWidth(z);
}

}  // namespace engine
}  // namespace lbsagg
