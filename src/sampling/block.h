#ifndef AQP_SAMPLING_BLOCK_H_
#define AQP_SAMPLING_BLOCK_H_

#include "common/result.h"
#include "engine/exec_options.h"
#include "sampling/sample.h"

namespace aqp {

/// Block-level Bernoulli sampling (SQL's TABLESAMPLE SYSTEM): each block of
/// `block_size` consecutive rows is included independently with probability
/// `rate`; rows of a kept block are all included. Skipping non-sampled blocks
/// is what gives block sampling its system efficiency; the price is intra-
/// block correlation, which the unit_ids in the result let estimators handle.
Result<Sample> BlockSample(const Table& table, double rate,
                           uint32_t block_size, uint64_t seed);

/// BlockSample with a parallel gather of the kept rows. Block selection (one
/// Bernoulli draw per block from one stream) stays serial — it is trivially
/// cheap and thread-count independent — so this overload keeps exactly the
/// serial overload's drawn set and differs only in gather wall-clock.
Result<Sample> BlockSample(const Table& table, double rate,
                           uint32_t block_size, uint64_t seed,
                           const ExecOptions& exec);

/// Shuffles a table's rows (Fisher–Yates with the given seed). Used to build
/// "clustered vs shuffled layout" experiments: block sampling loses
/// statistical efficiency exactly when blocks are internally homogeneous.
Table ShuffleRows(const Table& table, uint64_t seed);

}  // namespace aqp

#endif  // AQP_SAMPLING_BLOCK_H_
