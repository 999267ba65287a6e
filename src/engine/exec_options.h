#ifndef AQP_ENGINE_EXEC_OPTIONS_H_
#define AQP_ENGINE_EXEC_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"

namespace aqp {

/// Execution knobs shared by every executor (engine, approximate, offline,
/// online aggregation). The defaults give morsel-driven parallel execution
/// on all hardware threads; `num_threads = 1` preserves strictly
/// single-threaded execution (no pool, no helper threads).
///
/// There is one execution path: batch kernels over column spans, with
/// selection vectors that are gathered once, at the first operator that
/// needs a whole table. The row-at-a-time interpreter the differential
/// suites check it against is a test oracle (tests/support/row_reference.h),
/// not an option here.
///
/// Determinism contract: for a fixed (query seed, morsel_rows,
/// parallel_min_rows), results are identical for EVERY num_threads —
/// bit-for-bit for exact queries, draw-for-draw for sampled ones. Two
/// mechanisms deliver this:
///   1. per-morsel RNG: randomized operators seed one generator per morsel
///      from (seed, morsel id), never sharing a generator across morsels;
///   2. ordered merge: worker-local partial results live in morsel-indexed
///      slots and are merged in morsel order after the parallel region
///      (grouped aggregation merges in parallel over fixed group
///      partitions, each group still folding its partials in morsel order).
/// Changing morsel_rows (or parallel_min_rows, which switches between one
/// serial morsel and the morsel path) legitimately changes last-ulp
/// floating-point grouping and sampled draws; changing thread count never
/// does.
struct ExecOptions {
  /// 0 = auto: the AQP_NUM_THREADS environment variable if set, else
  /// HardwareThreads().
  size_t num_threads = 0;

  /// Fixed morsel size in rows. Part of the determinism contract above.
  uint32_t morsel_rows = 4096;

  /// Inputs with fewer rows than this run serially, as one morsel (morsel
  /// bookkeeping does not pay for itself). The threshold is
  /// compared against input size only — never thread count — so the chosen
  /// algorithm, and hence the result, is thread-count independent.
  size_t parallel_min_rows = 8192;

  /// Resource governance (optional, both borrowed — typically owned by a
  /// gov::QueryContext that outlives the query). `cancel` is polled at morsel
  /// and batch boundaries: deadline expiry, user cancellation, and memory
  /// exhaustion all surface through it. `memory` is charged for operator
  /// OUTPUTS as they materialize, for the hash join's build table and match
  /// pairs, for grouped aggregation's per-morsel partials and merged group
  /// tables ("aggregate state"), and for the grouped estimator's group ids,
  /// per-worker group slots and (group, unit) cells ("estimate state");
  /// other transient scratch, bounded by morsel_rows per worker, is not
  /// accounted. When a charge exceeds the budget the tracker trips `cancel`
  /// so in-flight morsels stop too.
  const CancellationToken* cancel = nullptr;
  MemoryTracker* memory = nullptr;

  /// The thread count this option set resolves to (>= 1). Invalid
  /// AQP_NUM_THREADS values (non-numeric, zero/negative, overflow) warn once
  /// and fall back to the hardware count instead of being silently
  /// misparsed.
  size_t ResolvedThreads() const {
    if (num_threads > 0) return num_threads;
    return ThreadCountFromEnv("AQP_NUM_THREADS", HardwareThreads());
  }

  /// True when `n` rows is enough work for the morsel path.
  bool UseMorsels(size_t n) const { return n >= parallel_min_rows; }
};

}  // namespace aqp

#endif  // AQP_ENGINE_EXEC_OPTIONS_H_
