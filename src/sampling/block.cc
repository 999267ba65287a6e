#include "sampling/block.h"

#include "common/random.h"

namespace aqp {

namespace {

// Shared selection + metadata half of both BlockSample overloads; the
// caller-provided `gather` closure materializes the kept rows.
template <typename GatherFn>
Result<Sample> BlockSampleImpl(const Table& table, double rate,
                               uint32_t block_size, uint64_t seed,
                               GatherFn gather) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("sampling rate must be in (0, 1]");
  }
  if (block_size == 0) {
    return Status::InvalidArgument("block size must be positive");
  }
  Pcg32 rng(seed);
  Sample sample;
  sample.table = Table(table.schema());
  size_t num_blocks = table.NumBlocks(block_size);
  std::vector<uint32_t> keep;
  uint32_t sampled_blocks = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    if (!rng.Bernoulli(rate)) continue;
    auto [first, last] = table.BlockRange(b, block_size);
    for (size_t i = first; i < last; ++i) {
      keep.push_back(static_cast<uint32_t>(i));
      sample.unit_ids.push_back(sampled_blocks);
      sample.weights.push_back(1.0 / rate);
    }
    sample.unit_sizes.push_back(static_cast<double>(last - first));
    ++sampled_blocks;
  }
  sample.table = gather(keep);
  sample.num_units_sampled = sampled_blocks;
  sample.num_units_population = num_blocks;
  sample.nominal_rate = rate;
  sample.population_rows = table.num_rows();
  return sample;
}

}  // namespace

Result<Sample> BlockSample(const Table& table, double rate,
                           uint32_t block_size, uint64_t seed) {
  return BlockSampleImpl(
      table, rate, block_size, seed,
      [&](const std::vector<uint32_t>& keep) { return table.Take(keep); });
}

Result<Sample> BlockSample(const Table& table, double rate,
                           uint32_t block_size, uint64_t seed,
                           const ExecOptions& exec) {
  return BlockSampleImpl(
      table, rate, block_size, seed, [&](const std::vector<uint32_t>& keep) {
        if (!exec.UseMorsels(keep.size())) return table.Take(keep);
        return table.Take(keep, exec.ResolvedThreads());
      });
}

Table ShuffleRows(const Table& table, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint32_t> perm =
      rng.Permutation(static_cast<uint32_t>(table.num_rows()));
  return table.Take(perm);
}

}  // namespace aqp
