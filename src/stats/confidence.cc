#include "stats/confidence.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "stats/distributions.h"

namespace aqp {
namespace stats {

double ConfidenceInterval::relative_half_width() const {
  if (estimate == 0.0) return std::numeric_limits<double>::infinity();
  return half_width() / std::fabs(estimate);
}

double FinitePopulationCorrection(uint64_t sample_size,
                                  uint64_t population_size) {
  if (population_size == 0 || sample_size >= population_size ||
      population_size < 2) {
    return population_size != 0 && sample_size >= population_size ? 0.0 : 1.0;
  }
  return std::sqrt(static_cast<double>(population_size - sample_size) /
                   static_cast<double>(population_size - 1));
}

namespace {

// Critical value: Student-t for small n, normal for huge n.
double CriticalValue(double confidence, uint64_t df) {
  AQP_CHECK(confidence > 0.0 && confidence < 1.0);
  double p = 1.0 - (1.0 - confidence) / 2.0;
  if (df == 0 || df > 1000000) return NormalQuantile(p);
  return StudentTQuantile(p, static_cast<double>(df));
}

}  // namespace

ConfidenceInterval EstimatorCi(double estimate, double estimator_variance,
                               double confidence, uint64_t df) {
  AQP_CHECK(estimator_variance >= 0.0);
  ConfidenceInterval ci;
  ci.estimate = estimate;
  ci.confidence = confidence;
  double crit = CriticalValue(confidence, df);
  double se = std::sqrt(estimator_variance);
  ci.low = estimate - crit * se;
  ci.high = estimate + crit * se;
  return ci;
}

uint64_t RequiredSampleSizeForMean(double pilot_mean, double pilot_variance,
                                   double target_relative_error,
                                   double confidence) {
  AQP_CHECK(pilot_mean != 0.0);
  AQP_CHECK(target_relative_error > 0.0);
  AQP_CHECK(pilot_variance >= 0.0);
  double z = NormalQuantile(1.0 - (1.0 - confidence) / 2.0);
  double tolerance = target_relative_error * std::fabs(pilot_mean);
  double n = pilot_variance * z * z / (tolerance * tolerance);
  if (n < 2.0) return 2;
  return static_cast<uint64_t>(std::ceil(n));
}

}  // namespace stats
}  // namespace aqp
