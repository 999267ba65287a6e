#include "sampling/bernoulli.h"

#include "common/cancellation.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace aqp {

Result<Sample> BernoulliRowSample(const Table& table, double rate,
                                  uint64_t seed) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("sampling rate must be in (0, 1]");
  }
  Pcg32 rng(seed);
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (rng.Bernoulli(rate)) keep.push_back(static_cast<uint32_t>(i));
  }
  Sample sample;
  sample.table = table.Take(keep);
  sample.weights.assign(keep.size(), 1.0 / rate);
  sample.unit_ids.resize(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    sample.unit_ids[i] = static_cast<uint32_t>(i);
  }
  sample.unit_sizes.assign(keep.size(), 1.0);
  sample.num_units_sampled = keep.size();
  sample.num_units_population = table.num_rows();
  sample.nominal_rate = rate;
  sample.population_rows = table.num_rows();
  return sample;
}

Result<Sample> BernoulliRowSample(const Table& table, double rate,
                                  uint64_t seed, const ExecOptions& exec) {
  const size_t n = table.num_rows();
  if (!exec.UseMorsels(n)) return BernoulliRowSample(table, rate, seed);
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("sampling rate must be in (0, 1]");
  }
  const size_t morsel_rows = exec.morsel_rows;
  const size_t num_threads = exec.ResolvedThreads();
  const size_t num_morsels = (n + morsel_rows - 1) / morsel_rows;
  std::vector<std::vector<uint32_t>> local(num_morsels);
  ThreadPool::Shared().ParallelFor(
      n, morsel_rows, num_threads,
      ThreadPool::ParallelForOptions{exec.cancel},
      [&](size_t, size_t m, size_t begin, size_t end) {
        Pcg32 rng = MorselRng(seed, m);
        for (size_t i = begin; i < end; ++i) {
          if (rng.Bernoulli(rate)) local[m].push_back(static_cast<uint32_t>(i));
        }
      });
  // A partial kept set is not a Bernoulli sample; stop before gathering.
  AQP_RETURN_IF_ERROR(CheckCancelled(exec.cancel));
  size_t total = 0;
  for (const std::vector<uint32_t>& v : local) total += v.size();
  std::vector<uint32_t> keep;
  keep.reserve(total);
  for (const std::vector<uint32_t>& v : local) {
    keep.insert(keep.end(), v.begin(), v.end());
  }
  Sample sample;
  sample.table = table.Take(keep, num_threads);
  sample.weights.assign(keep.size(), 1.0 / rate);
  sample.unit_ids.resize(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    sample.unit_ids[i] = static_cast<uint32_t>(i);
  }
  sample.unit_sizes.assign(keep.size(), 1.0);
  sample.num_units_sampled = keep.size();
  sample.num_units_population = table.num_rows();
  sample.nominal_rate = rate;
  sample.population_rows = table.num_rows();
  return sample;
}

}  // namespace aqp
