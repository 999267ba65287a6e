#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aqp {
namespace stats {

void Accumulator::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Accumulator::Add(double x, uint64_t n) {
  if (n == 0) return;
  count_ += n;
  const double w = static_cast<double>(n);
  double delta = x - mean_;
  mean_ += delta * w / static_cast<double>(count_);
  m2_ += delta * (x - mean_) * w;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::sample_variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::population_variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double Accumulator::sample_stddev() const {
  return std::sqrt(sample_variance());
}

double ExactQuantile(std::vector<double> values, double q) {
  AQP_CHECK(!values.empty());
  AQP_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace stats
}  // namespace aqp
