#ifndef AQP_TESTS_SUPPORT_ROW_REFERENCE_H_
#define AQP_TESTS_SUPPORT_ROW_REFERENCE_H_

#include "common/result.h"
#include "engine/catalog.h"
#include "engine/exec_options.h"
#include "engine/plan.h"
#include "storage/table.h"

namespace aqp {
namespace testutil {

/// Runs `plan` one row at a time: the oracle the engine's differential
/// suites compare against, and the "scalar" column of the E14 and E16
/// benches. Every operator materializes its output table:
///   - Scan: unsampled in-memory tables pass through; sampled and
///     extent-backed scans run the engine's own scan, so both draw the same
///     sample.
///   - Filter: EvalPredicate, then a row-by-row gather.
///   - Project: Eval per expression.
///   - Join: a row-by-row hash join, build side right.
///   - Aggregate: the oracle's own per-row accumulator and finalization,
///     sharing no code with the engine's kernels, folded into per-morsel
///     partials merged in morsel order: the same floating-point grouping the
///     engine uses for this `options`' morsel geometry.
///   - Sort, limit, union: plain loops.
/// Only the morsel geometry of `options` (`morsel_rows`, `parallel_min_rows`)
/// shapes the result; apart from the engine scan, the oracle runs serially.
Result<Table> ExecuteRowReference(const PlanPtr& plan, const Catalog& catalog,
                                  const ExecOptions& options = {});

}  // namespace testutil
}  // namespace aqp

#endif  // AQP_TESTS_SUPPORT_ROW_REFERENCE_H_
