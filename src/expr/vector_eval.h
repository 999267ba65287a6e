#ifndef AQP_EXPR_VECTOR_EVAL_H_
#define AQP_EXPR_VECTOR_EVAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace aqp {

/// A boolean predicate compiled for batch evaluation over contiguous column
/// spans. Comparisons, BETWEEN, IN, LIKE, and the Kleene combinators over
/// bare column references compile to tight mask kernels (string comparisons
/// become integer range/bitmap tests over order-preserving dictionary
/// codes); any other node — arithmetic, functions, nested expressions —
/// compiles to a scalar fallback that evaluates the row-at-a-time
/// interpreter over the span, so results are bit-identical to Eval() for
/// every expression.
///
/// Compile once per (predicate, table); EvalSpan is const and thread-safe,
/// so morsel workers share one compiled predicate.
class BatchPredicate {
 public:
  /// Compiles `expr` against columns addressed by name. Fails with the same
  /// type errors the scalar evaluator reports (the predicate is type-checked
  /// up front). Builds string dictionaries and IN/LIKE lookup bitmaps
  /// eagerly; the columns must outlive the predicate and not be appended to.
  static Result<BatchPredicate> Compile(const Expr& expr,
                                        const std::vector<std::string>& names,
                                        const std::vector<const Column*>& cols);

  /// Convenience overload compiling against all columns of `table`.
  static Result<BatchPredicate> Compile(const Expr& expr, const Table& table);

  BatchPredicate(BatchPredicate&&) noexcept;
  BatchPredicate& operator=(BatchPredicate&&) noexcept;
  ~BatchPredicate();

  /// Evaluates rows [begin, begin+n) of the bound columns into `out` — one
  /// three-valued mask byte per row (simd::kMaskFalse/True/Null). Errors
  /// only from scalar-fallback nodes (e.g. modulo by zero), matching the
  /// interpreter.
  Status EvalSpan(size_t begin, size_t n, uint8_t* out) const;

  /// Bytes of auxiliary lookup structures this predicate pinned (dictionary
  /// pages, IN/LIKE bitmaps) — what a governed query charges for the
  /// predicate's lifetime.
  uint64_t AuxBytes() const;

  /// Mask scratch bytes one EvalSpan call needs per row in the span (the
  /// deepest set of concurrently live mask buffers).
  uint64_t ScratchBytesPerRow() const;

  /// True when any node fell back to the scalar interpreter. Fallback nodes
  /// evaluate every row of the span, so callers composing over a selection
  /// vector must materialize first to preserve error behavior.
  bool HasFallback() const;

  /// Opaque compiled node (defined in vector_eval.cc).
  struct Node;

 private:
  BatchPredicate();
  std::unique_ptr<Node> root_;
  uint64_t aux_bytes_ = 0;
};

/// Drop-in batch counterpart of EvalPredicate: evaluates the predicate over
/// every row of `table` and returns the TRUE row indices ascending.
/// Morsel-parallel with ordered merge, so the selection is bit-identical to
/// EvalPredicate's for every thread count and morsel size. When `memory` is
/// non-null, dictionary pages and mask scratch are charged for the duration
/// of the call; a refused charge returns ResourceExhausted (the gov
/// ladder's degradation trigger).
Result<std::vector<uint32_t>> EvalPredicateBatch(
    const Expr& expr, const Table& table, size_t morsel_rows,
    size_t num_threads, ParallelRunStats* run_stats = nullptr,
    const CancellationToken* cancel = nullptr,
    MemoryTracker* memory = nullptr);

}  // namespace aqp

#endif  // AQP_EXPR_VECTOR_EVAL_H_
