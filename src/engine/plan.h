#ifndef AQP_ENGINE_PLAN_H_
#define AQP_ENGINE_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/aggregate.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace aqp {

/// Sampling annotation on a table scan — the engine-level equivalent of SQL's
/// TABLESAMPLE clause. This is the hook AQP plan rewrites use.
///
/// A sampled scan also outputs an INT64 column "__unit" when the plan above
/// it names that column: each row's sampling unit, the block index
/// row / block_size for SYSTEM and the row index for BERNOULLI. The scan
/// copies nothing for it: the unit is derived from each kept row's base row
/// wherever the rows are gathered. Such a scan reports its draw in
/// ExecStats::sampled_units. Plans that do not name "__unit" get neither.
struct SampleSpec {
  enum class Method {
    kNone,
    kBernoulliRow,  // TABLESAMPLE BERNOULLI: each row kept i.i.d. with `rate`.
    kSystemBlock,   // TABLESAMPLE SYSTEM: each block kept i.i.d. with `rate`.
  };
  Method method = Method::kNone;
  double rate = 1.0;  // Inclusion probability in (0, 1].
  uint64_t seed = 42;
  uint32_t block_size = kDefaultBlockSize;  // Only for kSystemBlock.

  bool is_sampled() const { return method != Method::kNone && rate < 1.0; }
};

class PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

enum class PlanKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kUnionAll,
};

enum class JoinType { kInner, kLeftOuter };

/// One ORDER BY key.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Immutable logical/physical plan node (this engine executes logical plans
/// directly, materializing each operator's output). Build via the factory
/// functions below.
class PlanNode {
 public:
  PlanKind kind() const { return kind_; }

  // kScan.
  const std::string& table_name() const { return table_name_; }
  const SampleSpec& sample() const { return sample_; }

  // Children (0 for scan, 1 for unary ops, 2 for join, N for union).
  const PlanPtr& child(size_t i = 0) const { return children_[i]; }
  size_t num_children() const { return children_.size(); }

  // kFilter.
  const ExprPtr& predicate() const { return predicate_; }

  // kProject.
  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  const std::vector<std::string>& names() const { return names_; }

  // kJoin.
  JoinType join_type() const { return join_type_; }
  const std::vector<std::string>& left_keys() const { return left_keys_; }
  const std::vector<std::string>& right_keys() const { return right_keys_; }

  // kAggregate.
  const std::vector<ExprPtr>& group_exprs() const { return exprs_; }
  const std::vector<std::string>& group_names() const { return names_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }

  // kSort.
  const std::vector<SortKey>& sort_keys() const { return sort_keys_; }

  // kLimit.
  uint64_t limit() const { return limit_; }

  /// Indented multi-line rendering for tests and debugging.
  std::string ToString() const;

  // --- Factories -----------------------------------------------------------
  static PlanPtr Scan(std::string table_name, SampleSpec sample = {});
  static PlanPtr Filter(PlanPtr input, ExprPtr predicate);
  static PlanPtr Project(PlanPtr input, std::vector<ExprPtr> exprs,
                         std::vector<std::string> names);
  static PlanPtr Join(PlanPtr left, PlanPtr right, JoinType type,
                      std::vector<std::string> left_keys,
                      std::vector<std::string> right_keys);
  static PlanPtr Aggregate(PlanPtr input, std::vector<ExprPtr> group_exprs,
                           std::vector<std::string> group_names,
                           std::vector<AggSpec> aggs);
  static PlanPtr Sort(PlanPtr input, std::vector<SortKey> keys);
  static PlanPtr Limit(PlanPtr input, uint64_t n);
  static PlanPtr UnionAll(std::vector<PlanPtr> inputs);

 private:
  PlanNode() = default;
  void Render(int indent, std::string* out) const;

  PlanKind kind_ = PlanKind::kScan;
  std::string table_name_;
  SampleSpec sample_;
  std::vector<PlanPtr> children_;
  ExprPtr predicate_;
  std::vector<ExprPtr> exprs_;
  std::vector<std::string> names_;
  JoinType join_type_ = JoinType::kInner;
  std::vector<std::string> left_keys_;
  std::vector<std::string> right_keys_;
  std::vector<AggSpec> aggs_;
  std::vector<SortKey> sort_keys_;
  uint64_t limit_ = 0;
};

}  // namespace aqp

#endif  // AQP_ENGINE_PLAN_H_
