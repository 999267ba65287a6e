#include "support/gather_first.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "engine/executor.h"

namespace aqp {
namespace testutil {
namespace {

bool NamesUnit(const ExprPtr& e) {
  if (e == nullptr) return false;
  for (const std::string& c : e->ReferencedColumns()) {
    if (c == "__unit") return true;
  }
  return false;
}

// True when some node of `plan` reads the column "__unit".
bool ReadsUnit(const PlanPtr& plan) {
  if (NamesUnit(plan->predicate())) return true;
  for (const ExprPtr& e : plan->exprs()) {
    if (NamesUnit(e)) return true;
  }
  for (const AggSpec& a : plan->aggs()) {
    if (NamesUnit(a.arg)) return true;
  }
  std::vector<std::string> keys = plan->left_keys();
  keys.insert(keys.end(), plan->right_keys().begin(), plan->right_keys().end());
  for (const SortKey& k : plan->sort_keys()) keys.push_back(k.column);
  if (std::count(keys.begin(), keys.end(), "__unit") > 0) return true;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    if (ReadsUnit(plan->child(i))) return true;
  }
  return false;
}

// Rebuilds `plan` over `out`, registering each table a scan reads: the
// source table for an unsampled scan, the gathered sample for a sampled one.
Result<PlanPtr> Rewrite(const PlanPtr& plan, const Catalog& source,
                        bool with_unit, Catalog* out, size_t* gathered) {
  std::vector<PlanPtr> children;
  for (size_t i = 0; i < plan->num_children(); ++i) {
    AQP_ASSIGN_OR_RETURN(
        PlanPtr c, Rewrite(plan->child(i), source, with_unit, out, gathered));
    children.push_back(std::move(c));
  }
  switch (plan->kind()) {
    case PlanKind::kScan: {
      AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                           ReadTable(source, plan->table_name()));
      const SampleSpec& spec = plan->sample();
      if (!spec.is_sampled()) {
        if (!out->Contains(plan->table_name())) {
          AQP_RETURN_IF_ERROR(out->Register(plan->table_name(), base));
        }
        return PlanNode::Scan(plan->table_name());
      }
      if (spec.method != SampleSpec::Method::kSystemBlock) {
        return Status::InvalidArgument("gather-first oracle: SYSTEM only");
      }
      const std::vector<uint32_t> rows =
          SystemSampleRows(base->num_rows(), spec);
      Table t = base->Take(rows);
      if (with_unit) {
        Schema schema = t.schema();
        schema.AddField({"__unit", DataType::kInt64});
        std::vector<Column> columns;
        for (size_t c = 0; c < t.num_columns(); ++c) {
          columns.push_back(t.column(c));
        }
        std::vector<int64_t> units;
        for (uint32_t r : rows) units.push_back(r / spec.block_size);
        columns.push_back(Column::FromInt64(std::move(units)));
        AQP_ASSIGN_OR_RETURN(
            t, Table::Make(std::move(schema), std::move(columns)));
      }
      const std::string name = "__gathered" + std::to_string((*gathered)++);
      AQP_RETURN_IF_ERROR(
          out->Register(name, std::make_shared<const Table>(std::move(t))));
      return PlanNode::Scan(name);
    }
    case PlanKind::kFilter:
      return PlanNode::Filter(children[0], plan->predicate());
    case PlanKind::kProject:
      return PlanNode::Project(children[0], plan->exprs(), plan->names());
    case PlanKind::kJoin:
      return PlanNode::Join(children[0], children[1], plan->join_type(),
                            plan->left_keys(), plan->right_keys());
    case PlanKind::kAggregate:
      return PlanNode::Aggregate(children[0], plan->group_exprs(),
                                 plan->group_names(), plan->aggs());
    case PlanKind::kSort:
      return PlanNode::Sort(children[0], plan->sort_keys());
    case PlanKind::kLimit:
      return PlanNode::Limit(children[0], plan->limit());
    case PlanKind::kUnionAll:
      return PlanNode::UnionAll(std::move(children));
  }
  return Status::Internal("unreachable plan kind");
}

}  // namespace

std::vector<uint32_t> SystemSampleRows(uint64_t num_rows,
                                       const SampleSpec& spec) {
  std::vector<uint32_t> rows;
  Pcg32 rng(spec.seed);
  for (uint64_t first = 0; first < num_rows; first += spec.block_size) {
    if (!rng.Bernoulli(spec.rate)) continue;
    const uint64_t last = std::min<uint64_t>(num_rows, first + spec.block_size);
    for (uint64_t r = first; r < last; ++r) {
      rows.push_back(static_cast<uint32_t>(r));
    }
  }
  return rows;
}

Result<Table> ExecuteGatherFirst(const PlanPtr& plan, const Catalog& catalog,
                                 const ExecOptions& options) {
  Catalog gathered;
  size_t count = 0;
  AQP_ASSIGN_OR_RETURN(
      PlanPtr rewritten,
      Rewrite(plan, catalog, ReadsUnit(plan), &gathered, &count));
  return Execute(rewritten, gathered, nullptr, nullptr, options);
}

}  // namespace testutil
}  // namespace aqp
