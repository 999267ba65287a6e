#include "sampling/reservoir.h"

#include <cmath>

#include "common/check.h"

namespace aqp {

ReservoirSampler::ReservoirSampler(size_t k, uint64_t seed)
    : k_(k), rng_(seed) {
  AQP_CHECK(k > 0);
  w_ = std::exp(std::log(rng_.NextDouble() + 1e-300) / static_cast<double>(k_));
  // Algorithm L: the first take after the fill phase is itself preceded by a
  // geometric skip.
  next_take_ = k_ + SkipLength() + 1;
}

uint64_t ReservoirSampler::SkipLength() {
  double u = rng_.NextDouble();
  return static_cast<uint64_t>(
      std::floor(std::log(u + 1e-300) / std::log(1.0 - w_)));
}

int64_t ReservoirSampler::Offer() {
  if (count_ >= k_ && count_ + 1 < next_take_) {
    ++count_;
    return -1;  // Inside a skip run.
  }
  size_t slot = 0;
  SkipToNextTake(&slot);
  return static_cast<int64_t>(slot);
}

uint64_t ReservoirSampler::SkipToNextTake(size_t* slot) {
  if (count_ < k_) {
    *slot = count_;  // Fill phase.
    return count_++;
  }
  // next_take_ is 1-based: the item at ordinal next_take_ - 1 is taken.
  const uint64_t ordinal = next_take_ - 1;
  count_ = next_take_;
  *slot = rng_.UniformUint64(k_);
  w_ *= std::exp(std::log(rng_.NextDouble() + 1e-300) /
                 static_cast<double>(k_));
  next_take_ = count_ + SkipLength() + 1;
  return ordinal;
}

Result<Sample> ReservoirSample(const Table& table, size_t k, uint64_t seed) {
  if (k == 0) return Status::InvalidArgument("reservoir size must be > 0");
  const size_t n = table.num_rows();
  Sample sample;
  if (k >= n) {
    std::vector<uint32_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
    sample.table = table.Take(all);
    sample.weights.assign(n, 1.0);
    sample.unit_ids = all;
    sample.unit_sizes.assign(n, 1.0);
    sample.num_units_sampled = n;
    sample.num_units_population = n;
    sample.nominal_rate = 1.0;
    sample.population_rows = n;
    return sample;
  }
  ReservoirSampler sampler(k, seed);
  std::vector<uint32_t> reservoir(k, 0);
  for (;;) {
    size_t slot = 0;
    const uint64_t i = sampler.SkipToNextTake(&slot);
    if (i >= n) break;
    reservoir[slot] = static_cast<uint32_t>(i);
  }
  sample.table = table.Take(reservoir);
  double weight = static_cast<double>(n) / static_cast<double>(k);
  sample.weights.assign(k, weight);
  sample.unit_ids.resize(k);
  for (size_t i = 0; i < k; ++i) sample.unit_ids[i] = static_cast<uint32_t>(i);
  sample.unit_sizes.assign(k, 1.0);
  sample.num_units_sampled = k;
  sample.num_units_population = n;
  sample.nominal_rate = static_cast<double>(k) / static_cast<double>(n);
  sample.population_rows = n;
  return sample;
}

}  // namespace aqp
