#ifndef AQP_ENGINE_EXECUTOR_H_
#define AQP_ENGINE_EXECUTOR_H_

#include <cstdint>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/catalog.h"
#include "engine/exec_options.h"
#include "engine/plan.h"
#include "obs/trace.h"

namespace aqp {

/// The draw of the sampled scans that output "__unit" (engine/plan.h): the
/// part of a sampling design that the output rows cannot show, because
/// units the plan's filters empty were still drawn.
struct SampledUnits {
  uint64_t units = 0;         // Units drawn: blocks (SYSTEM) or rows.
  uint64_t rows = 0;          // Base rows in the drawn units.
  uint64_t rows_squared = 0;  // Sum over drawn units of (unit rows)^2.

  void MergeFrom(const SampledUnits& other) {
    units += other.units;
    rows += other.rows;
    rows_squared += other.rows_squared;
  }
};

/// Execution statistics accumulated per query, used by cost analysis and the
/// latency benchmarks (a stand-in for a DBMS's "rows scanned" counters).
struct ExecStats {
  uint64_t rows_scanned = 0;   // Rows materialized out of scans (post-sample).
  uint64_t blocks_read = 0;    // Blocks touched by scans (block sampling
                               // skips blocks; row sampling reads all).
  uint64_t rows_joined = 0;    // Join output rows.
  uint64_t extents_total = 0;  // Extents considered by extent-backed scans.
  uint64_t extents_pruned = 0; // Extents skipped unread: zone maps, or no
                               // sampled block inside.
  ParallelRunStats parallel;   // Morsel/steal/per-worker counters summed over
                               // every parallel region of the query.
  SampledUnits sampled_units;  // Only scans that output "__unit" add here.
};

/// Executes a plan against the catalog, materializing every operator.
/// `stats`, when non-null, is incremented (not reset) by this execution.
/// `trace`, when non-null, receives one nested span per operator with
/// output row counts (and per-scan sampling decisions) — the engine half of
/// EXPLAIN ANALYZE. A null trace costs a single predictable branch per
/// operator, keeping instrumentation off the hot path.
/// `options` controls morsel-driven parallelism (see ExecOptions for the
/// determinism contract: results never depend on the thread count).
Result<Table> Execute(const PlanPtr& plan, const Catalog& catalog,
                      ExecStats* stats = nullptr,
                      obs::QueryTrace* trace = nullptr,
                      const ExecOptions& options = {});

}  // namespace aqp

#endif  // AQP_ENGINE_EXECUTOR_H_
