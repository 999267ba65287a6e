#ifndef AQP_ENGINE_EXTENT_SCAN_H_
#define AQP_ENGINE_EXTENT_SCAN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "expr/expr.h"
#include "storage/extent/extent_reader.h"
#include "storage/table.h"

namespace aqp {

/// Zone-map pruning and morsel-parallel scans over extent-backed tables
/// (docs/STORAGE.md §5): the executor routes scans of tables registered via
/// Catalog::RegisterExtentBacked through these entry points instead of
/// materializing the file up front. Every entry point decodes only the
/// column chunks the plan references. The fused filter+scan decodes one
/// extent at a time (a transient, governed allocation) and keeps only
/// matching rows, so a table much larger than the query's memory budget can
/// still be filtered — the property benchmarked by E19. A SYSTEM
/// block-sampled scan decodes only the extents its drawn blocks fall in.

/// A pruning conjunct: a NECESSARY condition of the query predicate of the
/// shape `col <op> literal`, `col BETWEEN lo AND hi`, or `col IN (...)`.
/// If a zone map proves no row of an extent can satisfy one conjunct, the
/// whole extent is skipped without being read. Conjuncts are extracted only
/// from top-level AND branches — anything under OR/NOT is ignored
/// (conservative: pruning never changes results, only work).
struct PruneConjunct {
  enum class Kind : uint8_t { kEq, kLt, kLe, kGt, kGe, kBetween, kIn };

  size_t col = 0;  // Field index in the extent file's schema.
  Kind kind = Kind::kEq;
  Value a;                    // The literal (lo for kBetween).
  Value b;                    // hi for kBetween, unused otherwise.
  std::vector<Value> values;  // kIn list.
};

/// Extracts pruning conjuncts from `pred` against `schema`. Unresolvable
/// columns, non-literal operands, and unsupported shapes are skipped — an
/// empty result just means nothing can be pruned.
std::vector<PruneConjunct> ExtractPruneConjuncts(const Expr& pred,
                                                 const Schema& schema);

/// True unless a zone map PROVES extent `meta` cannot contain a matching
/// row. Incomparable types and absent bounds answer true (read the extent);
/// an all-NULL chunk answers false for every comparison conjunct (SQL
/// comparisons with NULL are never true).
bool ExtentMayMatch(const extent::ExtentMeta& meta,
                    const std::vector<PruneConjunct>& conjuncts);

/// Shared knobs for the extent scan paths; borrowed pointers follow
/// ExecOptions semantics (null = ungoverned / unobserved).
struct ExtentScanOptions {
  size_t num_threads = 1;
  const CancellationToken* cancel = nullptr;
  MemoryTracker* memory = nullptr;
  ParallelRunStats* run_stats = nullptr;
};

/// What an extent-backed scan did, for ExecStats / trace spans.
struct ExtentScanStats {
  uint64_t extents_total = 0;   // Extents in the file.
  uint64_t extents_pruned = 0;  // Skipped unread: zone maps or no sampled
                                // block inside.
  uint64_t extents_read = 0;    // Decoded.
  uint64_t rows_read = 0;       // Rows decoded (pre-predicate).
};

/// Materializes the file as one Table, decoding only `columns` (schema
/// indices, non-empty; null = every column) of every extent, in parallel.
/// Parts are assembled column by column in extent order, so the result is
/// deterministic for every thread count. Used by bare and Bernoulli-sampled
/// scans (a Bernoulli sample draws from exactly the same per-morsel RNG
/// streams as its in-memory twin). The projected decoded size is charged
/// to `options.memory` before anything is decoded and released on return,
/// when the caller charges the result itself: a file that does not fit the
/// budget is refused with ResourceExhausted unread, which is how governance
/// learns the query needed the fused path or a sample.
Result<Table> ReadAllExtents(const extent::ExtentReader& reader,
                             const ExtentScanOptions& options,
                             ExtentScanStats* stats,
                             const std::vector<size_t>* columns = nullptr);

/// Fused filter+scan: prunes extents against `pred`'s conjuncts, decodes
/// the predicate's columns plus `columns` (null = every column) of the
/// surviving extents in parallel, evaluates the FULL predicate per extent,
/// and keeps only `columns` of the matching rows, in extent order. Each
/// decode transiently charges the decoded size of the columns it reads.
/// Output equals the `columns` of filter(pred, ReadAllExtents(...)) bit for
/// bit, for every thread count.
Result<Table> FusedExtentFilterScan(const extent::ExtentReader& reader,
                                    const Expr& pred,
                                    const ExtentScanOptions& options,
                                    ExtentScanStats* stats,
                                    const std::vector<size_t>* columns =
                                        nullptr);

/// Reads exactly the rows of `ranges` — global [begin, end) row ranges,
/// ascending and disjoint — in order, decoding `columns` (null = every
/// column) of only the extents the ranges touch; a range straddling an
/// extent boundary reads both extents. Untouched extents count as pruned:
/// they are never read. This is the SYSTEM block-sampled scan: the executor
/// draws the blocks exactly as it does for an in-memory table and passes
/// their row ranges, so the sample is bit-identical to the in-memory twin's.
/// Decodes are charged transiently, as in the fused filter scan.
Result<Table> ReadExtentRows(
    const extent::ExtentReader& reader,
    const std::vector<std::pair<uint64_t, uint64_t>>& ranges,
    const ExtentScanOptions& options, ExtentScanStats* stats,
    const std::vector<size_t>* columns = nullptr);

}  // namespace aqp

#endif  // AQP_ENGINE_EXTENT_SCAN_H_
