#ifndef AQP_TESTS_SUPPORT_GATHER_FIRST_H_
#define AQP_TESTS_SUPPORT_GATHER_FIRST_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "engine/catalog.h"
#include "engine/exec_options.h"
#include "engine/plan.h"

namespace aqp {
namespace testutil {

/// The base rows a TABLESAMPLE SYSTEM scan of a `num_rows`-row table keeps,
/// drawn the documented way: one Bernoulli(rate) per block, blocks in row
/// order, from one Pcg32(seed) stream.
std::vector<uint32_t> SystemSampleRows(uint64_t num_rows,
                                       const SampleSpec& spec);

/// The gather-first oracle for sampled scans: runs `plan` with every
/// SYSTEM-sampled scan replaced by an unsampled scan of a table holding
/// exactly the rows it keeps (SystemSampleRows), gathered before any
/// operator sees them. When the plan names "__unit" the gathered table
/// carries it too, as base row / block_size. This is how the engine ran a
/// sampled scan before it kept row ranges, so a range-reading engine must
/// return bit-identical tables. Unsampled scans read `catalog`'s in-memory
/// tables as they are.
Result<Table> ExecuteGatherFirst(const PlanPtr& plan, const Catalog& catalog,
                                 const ExecOptions& options = {});

}  // namespace testutil
}  // namespace aqp

#endif  // AQP_TESTS_SUPPORT_GATHER_FIRST_H_
