#ifndef AQP_STATS_CONFIDENCE_H_
#define AQP_STATS_CONFIDENCE_H_

#include <cstdint>

namespace aqp {
namespace stats {

/// A two-sided confidence interval around a point estimate.
struct ConfidenceInterval {
  double estimate = 0.0;
  double low = 0.0;
  double high = 0.0;
  double confidence = 0.0;  // e.g. 0.95

  /// Half the interval width.
  double half_width() const { return (high - low) / 2.0; }

  /// Half width relative to |estimate|; +inf when estimate == 0.
  double relative_half_width() const;

  /// True iff `truth` lies inside [low, high].
  bool Covers(double truth) const { return truth >= low && truth <= high; }
};

/// CI for a Horvitz–Thompson style estimate given its point value and an
/// estimated variance of the estimator (normal approximation).
ConfidenceInterval EstimatorCi(double estimate, double estimator_variance,
                               double confidence, uint64_t df = 0);

/// Sample size needed so a CLT CI for the mean at `confidence` has relative
/// half-width <= `target_relative_error`, given pilot estimates of mean and
/// variance. Returns a conservative ceil; mean must be non-zero.
uint64_t RequiredSampleSizeForMean(double pilot_mean, double pilot_variance,
                                   double target_relative_error,
                                   double confidence);

/// Finite-population correction factor sqrt((N - n) / (N - 1)) (1.0 when
/// population_size == 0 or n >= N).
double FinitePopulationCorrection(uint64_t sample_size,
                                  uint64_t population_size);

}  // namespace stats
}  // namespace aqp

#endif  // AQP_STATS_CONFIDENCE_H_
