#ifndef AQP_SAMPLING_BERNOULLI_H_
#define AQP_SAMPLING_BERNOULLI_H_

#include "common/result.h"
#include "engine/exec_options.h"
#include "sampling/sample.h"

namespace aqp {

/// Uniform row-level Bernoulli sampling: every row is included independently
/// with probability `rate` (SQL's TABLESAMPLE BERNOULLI). The sample size is
/// Binomial(N, rate); weights are the constant 1/rate. This overload draws
/// from a single RNG stream, serially — the legacy deterministic behavior.
Result<Sample> BernoulliRowSample(const Table& table, double rate,
                                  uint64_t seed);

/// Morsel-parallel Bernoulli row sampling: when the table clears
/// exec.parallel_min_rows, rows are split into exec.morsel_rows-sized
/// morsels, morsel m draws from MorselRng(seed, m), and kept rows are
/// gathered in parallel. The drawn set depends only on (seed, morsel_rows) —
/// never the thread count. Smaller tables delegate to the serial overload.
Result<Sample> BernoulliRowSample(const Table& table, double rate,
                                  uint64_t seed, const ExecOptions& exec);

}  // namespace aqp

#endif  // AQP_SAMPLING_BERNOULLI_H_
