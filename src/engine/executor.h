#ifndef AQP_ENGINE_EXECUTOR_H_
#define AQP_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Reads the whole of table `name`: the one place that decides where a
/// catalog name's rows live. An in-memory name returns the catalog's own
/// shared table, whatever `columns` asks: a lookup, nothing copied or
/// charged. An extent-backed name decodes `columns` (null = every column;
/// names the file does not store are skipped, and at least one column is
/// kept so row counts survive) with `exec`'s threads and cancellation,
/// charged to `exec.memory` before it is decoded and until the last
/// reference dies; `stats`, when non-null, counts the extents read. A
/// nonzero `max_rows` decodes only the extents holding the leading
/// `max_rows` rows, and returns those rows; an in-memory name still returns
/// its whole table, so a caller with a row limit applies it itself.
/// NotFound for an unknown name.
Result<std::shared_ptr<const Table>> ReadTable(
    const Catalog& catalog, const std::string& name,
    const std::vector<std::string>* columns = nullptr,
    const ExecOptions& exec = {}, ExecStats* stats = nullptr,
    uint64_t max_rows = 0);

}  // namespace aqp

#endif  // AQP_ENGINE_EXECUTOR_H_
