#ifndef AQP_STATS_DESCRIPTIVE_H_
#define AQP_STATS_DESCRIPTIVE_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace aqp {
namespace stats {

/// Single-pass numerically-stable accumulator for count / mean / variance /
/// min / max (Welford's online algorithm).
class Accumulator {
 public:
  /// Adds one observation.
  void Add(double x);
  /// Adds `n` observations of `x`.
  void Add(double x, uint64_t n);

  uint64_t count() const { return count_; }
  double sum() const { return mean_ * static_cast<double>(count_); }
  /// Mean of observations; 0 when empty.
  double mean() const { return mean_; }
  /// Sum of squared deviations from the mean.
  double m2() const { return m2_; }
  /// Unbiased sample variance (n-1 denominator); 0 when count < 2.
  double sample_variance() const;
  /// Population variance (n denominator); 0 when empty.
  double population_variance() const;
  /// Sample standard deviation.
  double sample_stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Sum of squared deviations from the running mean.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Computes the q-quantile (0 <= q <= 1) of `values` by sorting a copy
/// (linear interpolation between order statistics). Intended for tests and
/// small result sets; use sketch::KllSketch for large streams.
double ExactQuantile(std::vector<double> values, double q);

}  // namespace stats
}  // namespace aqp

#endif  // AQP_STATS_DESCRIPTIVE_H_
