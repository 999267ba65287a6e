#ifndef AQP_EXPR_EVAL_H_
#define AQP_EXPR_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace aqp {

/// Evaluates `expr` over every row of `table`, producing a column of the
/// expression's result type. SQL NULL semantics: NULL operands propagate
/// through arithmetic and comparisons; AND/OR use three-valued logic.
Result<Column> Eval(const Expr& expr, const Table& table);

/// A column evaluated for reading: `column` is the table's own column when
/// the expression is a bare column reference (borrowed, no copy), and
/// `owned` holds the evaluated result otherwise.
struct EvaluatedColumn {
  const Column* column = nullptr;
  std::unique_ptr<Column> owned;
};

/// Eval for read-only use: borrows a bare column reference's column instead
/// of copying it. `table` must outlive the result.
Result<EvaluatedColumn> EvalBorrowed(const Expr& expr, const Table& table);

/// Evaluates a boolean predicate and returns the indices of rows where it is
/// TRUE (NULL and FALSE rows are excluded, per SQL WHERE semantics).
Result<std::vector<uint32_t>> EvalPredicate(const Expr& expr,
                                            const Table& table);

/// SQL LIKE matching with % (any run) and _ (any single char) wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace aqp

#endif  // AQP_EXPR_EVAL_H_
