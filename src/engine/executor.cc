#include "engine/executor.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/hash_id_table.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/str_util.h"
#include "engine/extent_scan.h"
#include "engine/row_ranges.h"
#include "expr/eval.h"
#include "expr/vector_eval.h"
#include "gov/fault_injector.h"
#include "obs/metrics.h"

namespace aqp {
namespace {

using TablePtr = std::shared_ptr<const Table>;

// Compares slot i of column a against slot j of column b for ordering;
// NULLs sort first. Columns must share a type.
int CompareForSort(const Column& a, size_t i, const Column& b, size_t j) {
  bool an = a.IsNull(i);
  bool bn = b.IsNull(j);
  if (an || bn) return (an ? 0 : 1) - (bn ? 0 : 1);
  switch (a.type()) {
    case DataType::kInt64: {
      int64_t x = a.Int64At(i);
      int64_t y = b.Int64At(j);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = a.DoubleAt(i);
      double y = b.DoubleAt(j);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString: {
      int c = a.StringAt(i).compare(b.StringAt(j));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kBool:
      return (a.BoolAt(i) ? 1 : 0) - (b.BoolAt(j) ? 1 : 0);
  }
  return 0;
}

// The columns each extent-backed or sampled scan must produce, by plan
// node: nullopt (or no entry) means every stored column. Fused filters over
// such scans carry their own entry — the columns they output.
using ColumnNeeds =
    std::unordered_map<const PlanNode*,
                       std::optional<std::vector<std::string>>>;

// Bundles the per-query execution environment threaded through every
// operator: where tables come from, where counters go, and the parallelism
// knobs. Spans are created only on the coordinator thread (QueryTrace is not
// thread-safe); workers never touch `trace`.
struct ExecContext {
  const Catalog& catalog;
  ExecStats* stats;
  obs::QueryTrace* trace;
  const ExecOptions& options;
  // Filled once per Execute, and only when the plan reads an extent-backed
  // table or draws a sample; unsampled in-memory scans ignore it.
  const ColumnNeeds* needs = nullptr;
  // Units the last sampled scan drew and the row ranges they coalesce
  // into, and the rows the last filter evaluated, for their trace spans.
  uint64_t scan_units = 0;
  uint64_t scan_ranges = 0;
  uint64_t rows_evaluated = 0;

  // Where parallel regions report their morsel/steal counters (null when the
  // caller did not ask for stats).
  ParallelRunStats* run_stats() const {
    return stats != nullptr ? &stats->parallel : nullptr;
  }

  // Cancellation forwarded into every ParallelFor so in-flight morsels stop
  // at their next boundary, not just the next operator.
  ThreadPool::ParallelForOptions pf_options() const {
    return ThreadPool::ParallelForOptions{options.cancel};
  }
};

// A late-materialized operator batch: rows of `base` viewed through a
// column remap (view column i is base column col_idx[i], named names[i])
// and at most one of two selection forms, both over BASE rows in ascending
// order:
//   - `ranges`: sorted, coalesced [begin, end) row ranges. A SYSTEM sample
//     keeps whole blocks, so its scan returns the kept blocks this way and
//     writes nothing per row. The filter evaluates only the rows in the
//     ranges, and gathers (the aggregate's, the plan root's) copy them
//     range by range.
//   - `sel`: a selection vector of row ids, from a filter or a BERNOULLI
//     sample. The join reads every view through ids; a range view is
//     expanded to ids for it (SelectionAsIds).
// With neither, the view holds every base row. Scan, filter and project
// produce views without copying a cell; the first table-valued operator
// (aggregate, join, sort, ...) — or the plan root — gathers once.
// Selections index base rows, so predicate kernels run over contiguous
// column spans regardless of how many filters stacked up.
//
// A sampled scan that outputs "__unit" adds it as the derived column
// kUnitColumn: each row's unit is its base row / unit_rows, computed
// wherever the view is gathered, so the scan itself copies nothing.
constexpr size_t kUnitColumn = SIZE_MAX;

struct BatchView {
  TablePtr base;
  std::vector<size_t> col_idx;
  std::vector<std::string> names;
  std::shared_ptr<const std::vector<uint32_t>> sel;
  std::shared_ptr<const RowRanges> ranges;
  size_t num_rows = 0;
  uint32_t unit_rows = 0;  // Nonzero when some col_idx is kUnitColumn.
};

Result<BatchView> Exec(const PlanPtr& plan, ExecContext& ctx);

// Materializes `t` behind a shared_ptr, charging the query's MemoryTracker
// (when one is bound) for the table's footprint until the last reference
// dies. Operator OUTPUTS go through here; catalog base tables do not (they
// are shared storage, not query-owned memory).
Result<TablePtr> TrackTable(Table&& t, ExecContext& ctx,
                            std::string_view what) {
  MemoryTracker* memory = ctx.options.memory;
  if (memory == nullptr) {
    return std::make_shared<const Table>(std::move(t));
  }
  auto owned = std::make_unique<const Table>(std::move(t));
  const uint64_t bytes = owned->ApproxBytes();
  AQP_RETURN_IF_ERROR(memory->TryCharge(bytes, what));
  return TablePtr(owned.release(), [memory, bytes](const Table* p) {
    delete p;
    memory->Release(bytes);
  });
}

uint64_t SelectionBytes(const std::vector<uint32_t>& ids) {
  return ids.capacity() * sizeof(uint32_t);
}
uint64_t SelectionBytes(const RowRanges& ranges) {
  return ranges.ApproxBytes();
}

// Selections — id vectors and row ranges — are query-owned memory too:
// charge them like operator outputs, released when the last view
// referencing them dies.
template <typename Sel>
Result<std::shared_ptr<const Sel>> TrackSel(Sel&& sel, ExecContext& ctx,
                                            std::string_view what) {
  MemoryTracker* memory = ctx.options.memory;
  if (memory == nullptr) return std::make_shared<const Sel>(std::move(sel));
  auto owned = std::make_unique<const Sel>(std::move(sel));
  const uint64_t bytes = SelectionBytes(*owned);
  AQP_RETURN_IF_ERROR(memory->TryCharge(bytes, what));
  return std::shared_ptr<const Sel>(owned.release(),
                                    [memory, bytes](const Sel* p) {
                                      delete p;
                                      memory->Release(bytes);
                                    });
}

// Wraps a table as the trivial view over itself.
BatchView IdentityView(TablePtr t) {
  BatchView v;
  v.base = std::move(t);
  const size_t n = v.base->num_columns();
  v.col_idx.resize(n);
  v.names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.col_idx[i] = i;
    v.names.push_back(v.base->schema().field(i).name);
  }
  v.num_rows = v.base->num_rows();
  return v;
}

bool ViewIsIdentity(const BatchView& v) {
  if (v.sel != nullptr || v.ranges != nullptr) return false;
  if (v.col_idx.size() != v.base->num_columns()) return false;
  for (size_t i = 0; i < v.col_idx.size(); ++i) {
    if (v.col_idx[i] != i) return false;
    if (v.names[i] != v.base->schema().field(i).name) return false;
  }
  return true;
}

// Builds output columns [0, num_cols) with `gather(i)`, column-parallel
// through the pool whenever the morsel path is active for `rows` — columns
// are independent, so the result is identical for every thread count.
template <typename Gather>
Result<std::vector<Column>> GatherColumns(size_t num_cols, size_t rows,
                                          ExecContext& ctx, Gather&& gather) {
  if (!ctx.options.UseMorsels(rows)) {
    std::vector<Column> columns;
    columns.reserve(num_cols);
    for (size_t i = 0; i < num_cols; ++i) columns.push_back(gather(i));
    return columns;
  }
  std::vector<Column> gathered(num_cols, Column(DataType::kInt64));
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      num_cols, /*morsel_items=*/1, ctx.options.ResolvedThreads(),
      ctx.pf_options(), [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) gathered[i] = gather(i);
      });
  if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
  // A cancellation mid-gather leaves dummy columns behind; bail before
  // Table::Make sees mismatched lengths.
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  return gathered;
}

// The view's column names and types as a schema, so names resolve against
// a view exactly as they would against its materialized table.
Schema ViewSchema(const BatchView& v) {
  Schema schema;
  for (size_t i = 0; i < v.col_idx.size(); ++i) {
    schema.AddField({v.names[i], v.col_idx[i] == kUnitColumn
                                     ? DataType::kInt64
                                     : v.base->column(v.col_idx[i]).type()});
  }
  return schema;
}

// Column i of `v` at base rows `rows` (every base row when null). A
// null-extending gather (`or_null`) yields NULL where `rows` holds
// Column::kNullRow. The unit column is computed from the rows themselves.
Column GatherViewColumn(const BatchView& v, size_t i,
                        const std::vector<uint32_t>* rows,
                        bool or_null = false) {
  if (v.col_idx[i] != kUnitColumn) {
    const Column& col = v.base->column(v.col_idx[i]);
    if (rows == nullptr) return col;
    return or_null ? col.TakeOrNull(*rows) : col.Take(*rows);
  }
  const size_t n = rows != nullptr ? rows->size() : v.base->num_rows();
  auto row = [rows](size_t r) {
    return rows != nullptr ? (*rows)[r] : static_cast<uint32_t>(r);
  };
  if (or_null) {
    Column out(DataType::kInt64);
    out.Reserve(n);
    for (size_t r = 0; r < n; ++r) {
      if (row(r) == Column::kNullRow) {
        out.AppendNull();
      } else {
        out.AppendInt64(row(r) / v.unit_rows);
      }
    }
    return out;
  }
  std::vector<int64_t> units(n);
  for (size_t r = 0; r < n; ++r) units[r] = row(r) / v.unit_rows;
  return Column::FromInt64(std::move(units));
}

// Column i of `v` over the view's own selection; a range view is copied
// range by range.
Column GatherViewColumn(const BatchView& v, size_t i) {
  if (v.ranges == nullptr) return GatherViewColumn(v, i, v.sel.get());
  const std::vector<RowRanges::Range>& ranges = v.ranges->ranges();
  if (v.col_idx[i] == kUnitColumn) {
    std::vector<int64_t> units;
    units.reserve(v.num_rows);
    for (const RowRanges::Range& r : ranges) {
      for (uint32_t row = r.begin; row < r.end; ++row) {
        units.push_back(row / v.unit_rows);
      }
    }
    return Column::FromInt64(std::move(units));
  }
  const Column& col = v.base->column(v.col_idx[i]);
  Column out(col.type());
  out.Reserve(v.num_rows);
  for (const RowRanges::Range& r : ranges) {
    out.AppendRange(col, r.begin, r.end - r.begin);
  }
  return out;
}

// Gathers a view into a new table. Selection gathers run column-parallel
// on the morsel path (single-column views included, so morsel attribution
// reflects the gather uniformly).
Result<Table> GatherView(const BatchView& v, ExecContext& ctx) {
  std::vector<Column> columns;
  if (v.sel == nullptr && v.ranges == nullptr) {
    columns.reserve(v.col_idx.size());
    for (size_t i = 0; i < v.col_idx.size(); ++i) {
      columns.push_back(GatherViewColumn(v, i, nullptr));
    }
  } else {
    AQP_ASSIGN_OR_RETURN(
        columns, GatherColumns(v.col_idx.size(), v.num_rows, ctx,
                               [&](size_t i) { return GatherViewColumn(v, i); }));
  }
  return Table::Make(ViewSchema(v), std::move(columns));
}

// The view with a range selection replaced by the same rows as ids, for
// operators that read rows through ids (the join); other views pass
// through.
Result<BatchView> SelectionAsIds(BatchView v, ExecContext& ctx) {
  if (v.ranges == nullptr) return v;
  AQP_ASSIGN_OR_RETURN(v.sel,
                       TrackSel(v.ranges->ToIds(), ctx, "scan selection"));
  v.ranges = nullptr;
  return v;
}

// Collapses a view into a real table: the one gather of the pipeline.
// Identity views hand back the base table without copying (an unsampled
// scan passes catalog tables through).
Result<TablePtr> MaterializeView(const BatchView& v, ExecContext& ctx,
                                 std::string_view what) {
  if (ViewIsIdentity(v)) return v.base;
  AQP_ASSIGN_OR_RETURN(Table out, GatherView(v, ctx));
  return TrackTable(std::move(out), ctx, what);
}

// True when an expression referencing `refs` can resolve to column `name`:
// an exact match, or a qualified "<q>.<ref>" for an unqualified ref.
bool Referenced(const std::string& name, const std::vector<std::string>& refs) {
  for (const std::string& ref : refs) {
    if (name == ref) return true;
    if (ref.find('.') == std::string::npos && name.size() > ref.size() &&
        name[name.size() - ref.size() - 1] == '.' &&
        name.compare(name.size() - ref.size(), ref.size(), ref) == 0) {
      return true;
    }
  }
  return false;
}

// A derived unit column has no base column for an operator to read. When
// `refs` can resolve to it, the view is gathered so that it becomes one.
Result<BatchView> GatherIfUnitReferenced(BatchView v,
                                         const std::vector<std::string>& refs,
                                         ExecContext& ctx,
                                         std::string_view what) {
  for (size_t i = 0; i < v.col_idx.size(); ++i) {
    if (v.col_idx[i] == kUnitColumn && Referenced(v.names[i], refs)) {
      AQP_ASSIGN_OR_RETURN(TablePtr t, MaterializeView(v, ctx, what));
      return IdentityView(std::move(t));
    }
  }
  return v;
}

// Narrows a view to the columns that expressions referencing `refs` can
// resolve to, so resolution (and any ambiguity error) is the same over the
// narrowed view as over the full one. Identity views are returned whole —
// they materialize without a copy, and narrowing would force one. At least
// one column survives so the row count does.
BatchView NarrowView(BatchView v, const std::vector<std::string>& refs) {
  if (ViewIsIdentity(v) || v.col_idx.empty()) return v;
  BatchView out;
  out.base = v.base;
  out.sel = v.sel;
  out.ranges = v.ranges;
  out.num_rows = v.num_rows;
  out.unit_rows = v.unit_rows;
  for (size_t i = 0; i < v.col_idx.size(); ++i) {
    if (!Referenced(v.names[i], refs)) continue;
    out.col_idx.push_back(v.col_idx[i]);
    out.names.push_back(v.names[i]);
  }
  if (out.col_idx.empty()) {
    out.col_idx.push_back(v.col_idx[0]);
    out.names.push_back(v.names[0]);
  }
  return out;
}

// The child as a table, for operators that need it whole (sort, limit,
// union): the view gathered once at this boundary.
Result<TablePtr> ExecInput(const PlanPtr& plan, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(BatchView view, Exec(plan, ctx));
  return MaterializeView(view, ctx, "batch materialize");
}

// The row ranges of the blocks a SYSTEM block sample keeps, ascending. One
// Bernoulli draw per block from a single stream is cheap and trivially
// thread-count independent. Shared by in-memory and extent-backed scans, so
// both keep exactly the same blocks for a given seed.
std::vector<std::pair<uint64_t, uint64_t>> DrawSampleBlocks(
    uint64_t num_rows, const SampleSpec& spec) {
  std::vector<std::pair<uint64_t, uint64_t>> blocks;
  Pcg32 rng(spec.seed);
  const uint64_t block = spec.block_size;
  AQP_CHECK(block > 0);
  for (uint64_t first = 0; first < num_rows; first += block) {
    if (!rng.Bernoulli(spec.rate)) continue;
    blocks.emplace_back(first, std::min(first + block, num_rows));
  }
  return blocks;
}

// The draw of a SYSTEM sample: each kept block is one unit.
SampledUnits DrawnBlocks(
    const std::vector<std::pair<uint64_t, uint64_t>>& blocks) {
  SampledUnits drawn;
  for (const auto& [first, last] : blocks) {
    drawn.units += 1;
    drawn.rows += last - first;
    drawn.rows_squared += (last - first) * (last - first);
  }
  return drawn;
}

// Draws the kept rows of a BERNOULLI sample: exactly the same rows for a
// given (seed, morsel_rows) regardless of thread count. Row-level Bernoulli
// still visits every row — the system-efficiency gap the paper highlights.
Result<std::vector<uint32_t>> DrawBernoulliKeep(size_t n,
                                                const SampleSpec& spec,
                                                bool use_morsels,
                                                ExecContext& ctx) {
  std::vector<uint32_t> keep;
  if (!use_morsels) {
    // Small input: one morsel, one stream — MorselRng(seed, 0) is the plain
    // Pcg32(seed) the classic path always used.
    Pcg32 rng = MorselRng(spec.seed, 0);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(spec.rate)) keep.push_back(static_cast<uint32_t>(i));
    }
    return keep;
  }
  // Per-morsel RNG: morsel m draws from stream m of the query seed, so the
  // kept set depends only on (seed, morsel_rows) — never on which worker ran
  // the morsel or how many threads participated.
  const size_t morsel_rows = ctx.options.morsel_rows;
  const size_t num_morsels = (n + morsel_rows - 1) / morsel_rows;
  std::vector<std::vector<uint32_t>> local(num_morsels);
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      n, morsel_rows, ctx.options.ResolvedThreads(), ctx.pf_options(),
      [&](size_t, size_t m, size_t begin, size_t end) {
        Pcg32 rng = MorselRng(spec.seed, m);
        for (size_t i = begin; i < end; ++i) {
          if (rng.Bernoulli(spec.rate)) {
            local[m].push_back(static_cast<uint32_t>(i));
          }
        }
      });
  // A cancellation that landed mid-draw leaves `local` incomplete; the
  // partial kept set must never masquerade as a valid sample.
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  size_t total = 0;
  for (const std::vector<uint32_t>& v : local) total += v.size();
  keep.reserve(total);
  for (const std::vector<uint32_t>& v : local) {
    keep.insert(keep.end(), v.begin(), v.end());
  }
  if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
  return keep;
}

ExtentScanOptions MakeExtentScanOptions(size_t num_rows, ExecContext& ctx) {
  ExtentScanOptions o;
  o.num_threads = ctx.options.UseMorsels(num_rows)
                      ? ctx.options.ResolvedThreads()
                      : 1;
  o.cancel = ctx.options.cancel;
  o.memory = ctx.options.memory;
  o.run_stats = ctx.run_stats();
  return o;
}

void MergeExtentStats(const ExtentScanStats& es, ExecContext& ctx) {
  if (ctx.stats == nullptr) return;
  ctx.stats->extents_total += es.extents_total;
  ctx.stats->extents_pruned += es.extents_pruned;
}

// The stored columns `node` must produce, by name: null (every column)
// unless the plan's column needs say otherwise.
const std::vector<std::string>* NeededNames(const PlanNode& node,
                                            const ExecContext& ctx) {
  if (ctx.needs == nullptr) return nullptr;
  auto it = ctx.needs->find(&node);
  if (it == ctx.needs->end() || !it->second.has_value()) return nullptr;
  return &*it->second;
}

// The schema indices of `names` (null = every column), ascending. Names
// resolve exactly as the operators above will resolve them; a name the
// schema cannot resolve ("__unit", the sampled scan's own) is skipped, and
// an operator that needs it reports it as missing either way. At least one
// column is kept, so row counts (COUNT(*)) survive.
std::vector<size_t> ResolveColumns(const Schema& schema,
                                   const std::vector<std::string>* names) {
  std::vector<bool> keep(schema.num_fields(), names == nullptr);
  if (names != nullptr) {
    for (const std::string& name : *names) {
      Result<size_t> c = schema.FieldIndex(name);
      if (c.ok()) keep[c.value()] = true;
    }
  }
  std::vector<size_t> cols;
  for (size_t c = 0; c < keep.size(); ++c) {
    if (keep[c]) cols.push_back(c);
  }
  if (cols.empty() && !keep.empty()) cols.push_back(0);
  return cols;
}

// True when the sampled scan `node` must output "__unit": the plan above
// reads that name from it.
bool ExposesUnit(const PlanNode& node, const ExecContext& ctx) {
  if (!node.sample().is_sampled()) return false;
  const std::vector<std::string>* names = NeededNames(node, ctx);
  return names != nullptr &&
         std::count(names->begin(), names->end(), "__unit") > 0;
}

// A scan's input: the catalog table or the decoded extent file. A SYSTEM
// block-sampled extent scan comes back already sampled, its stats counted.
struct ScanInput {
  TablePtr table;
  bool sampled = false;
};

// Resolves a scan's base table through ReadTable: the catalog's own
// in-memory table, or the columns the plan needs decoded from the extent
// file, charged like any operator output. A SYSTEM block sample of an
// extent-backed table decodes only the extents its blocks fall in.
Result<ScanInput> ScanBaseTable(const PlanNode& node, ExecContext& ctx) {
  const SampleSpec& spec = node.sample();
  if (!spec.is_sampled() || spec.method != SampleSpec::Method::kSystemBlock ||
      !ctx.catalog.IsExtentBacked(node.table_name())) {
    AQP_ASSIGN_OR_RETURN(TablePtr t,
                         ReadTable(ctx.catalog, node.table_name(),
                                   NeededNames(node, ctx), ctx.options,
                                   ctx.stats));
    return ScanInput{std::move(t)};
  }
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const extent::ExtentReader> reader,
                       ctx.catalog.GetExtentReader(node.table_name()));
  const std::vector<size_t> cols =
      ResolveColumns(reader->schema(), NeededNames(node, ctx));
  ExtentScanStats es;
  const std::vector<std::pair<uint64_t, uint64_t>> blocks =
      DrawSampleBlocks(reader->num_rows(), spec);
  AQP_ASSIGN_OR_RETURN(
      Table t,
      ReadExtentRows(*reader, blocks,
                     MakeExtentScanOptions(reader->num_rows(), ctx), &es,
                     &cols));
  MergeExtentStats(es, ctx);
  if (ctx.stats != nullptr) {
    ctx.stats->rows_scanned += t.num_rows();
    ctx.stats->blocks_read += blocks.size();
  }
  ctx.scan_units = blocks.size();
  ctx.scan_ranges = RowRanges::CountRuns(blocks);
  if (ExposesUnit(node, ctx)) {
    // The rows came back already sampled, so "__unit" is built from the
    // drawn ranges rather than derived from base rows.
    if (ctx.stats != nullptr) {
      ctx.stats->sampled_units.MergeFrom(DrawnBlocks(blocks));
    }
    std::vector<int64_t> units;
    units.reserve(t.num_rows());
    for (const auto& [first, last] : blocks) {
      units.insert(units.end(), last - first,
                   static_cast<int64_t>(first / spec.block_size));
    }
    Schema schema = t.schema();
    schema.AddField({"__unit", DataType::kInt64});
    std::vector<Column> columns;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      columns.push_back(std::move(t.mutable_column(c)));
    }
    columns.push_back(Column::FromInt64(std::move(units)));
    AQP_ASSIGN_OR_RETURN(
        t, Table::Make(std::move(schema), std::move(columns)));
  }
  AQP_ASSIGN_OR_RETURN(TablePtr out,
                       TrackTable(std::move(t), ctx, "scan output"));
  return ScanInput{std::move(out), /*sampled=*/true};
}

// Fused filter+scan over an extent-backed base: prune extents with the
// predicate's conjuncts, decode + filter the survivors morsel-parallel, and
// emit only matching rows (engine/extent_scan.h). Applies when the filter
// sits directly on an unsampled scan — the shape every pushed-down WHERE
// clause takes.
Result<TablePtr> ExecExtentFilterScan(const PlanNode& filter_node,
                                      const PlanNode& scan_node,
                                      ExecContext& ctx) {
  AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail("engine.scan"));
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const extent::ExtentReader> reader,
                       ctx.catalog.GetExtentReader(scan_node.table_name()));
  const std::vector<size_t> cols =
      ResolveColumns(reader->schema(), NeededNames(filter_node, ctx));
  ExtentScanStats es;
  AQP_ASSIGN_OR_RETURN(
      Table t, FusedExtentFilterScan(
                   *reader, *filter_node.predicate(),
                   MakeExtentScanOptions(reader->num_rows(), ctx), &es,
                   &cols));
  MergeExtentStats(es, ctx);
  ctx.rows_evaluated = es.rows_read;
  if (ctx.stats != nullptr) {
    // Pruned extents are I/O the query never did; count only decoded rows
    // and the blocks of extents actually read.
    ctx.stats->rows_scanned += es.rows_read;
    ctx.stats->blocks_read +=
        (es.rows_read + scan_node.sample().block_size - 1) /
        scan_node.sample().block_size;
  }
  return TrackTable(std::move(t), ctx, "filter output");
}

// True when a filter node directly over `child` should take the fused
// extent path.
bool UseFusedExtentFilter(const PlanNode& filter_node, ExecContext& ctx) {
  const PlanPtr& child = filter_node.child();
  return child->kind() == PlanKind::kScan && !child->sample().is_sampled() &&
         ctx.catalog.IsExtentBacked(child->table_name());
}

// One side of a hash join: the input view and its key columns, read
// through the view's selection (view row r is base row Row(r)).
struct JoinSide {
  BatchView view;
  std::vector<const Column*> keys;

  uint32_t Row(size_t r) const {
    return view.sel != nullptr ? (*view.sel)[r] : static_cast<uint32_t>(r);
  }
  // Hash of the key at base row b, or false when any key part is NULL
  // (NULL keys never join).
  bool KeyHash(uint32_t b, uint64_t* h) const {
    *h = 0x2545f4914f6cdd1dULL;
    for (const Column* k : keys) {
      if (k->IsNull(b)) return false;
      *h = HashCombine(*h, k->HashAt(b));
    }
    return true;
  }
};

Result<JoinSide> MakeJoinSide(BatchView view,
                              const std::vector<std::string>& key_names,
                              ExecContext& ctx) {
  JoinSide side;
  AQP_ASSIGN_OR_RETURN(view, GatherIfUnitReferenced(std::move(view),
                                                    key_names, ctx,
                                                    "join input"));
  AQP_ASSIGN_OR_RETURN(view, SelectionAsIds(std::move(view), ctx));
  const Schema schema = ViewSchema(view);
  for (const std::string& k : key_names) {
    AQP_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(k));
    side.keys.push_back(&view.base->column(view.col_idx[idx]));
  }
  side.view = std::move(view);
  return side;
}

// The build side's distinct keys (dense ids in first-appearance order) and,
// per key, its base rows in ascending order — the order the probe emits
// matches in.
struct JoinBuild {
  HashIdTable keys;
  std::vector<uint32_t> key_rep;  // A base row holding each key.
  std::vector<uint32_t> offsets;  // Rows of key k: rows[offsets[k], [k+1]).
  std::vector<uint32_t> rows;

  uint64_t ApproxBytes() const {
    return keys.ApproxBytes() +
           (key_rep.capacity() + offsets.capacity() + rows.capacity()) *
               sizeof(uint32_t);
  }
};

bool KeysEqual(const JoinSide& a, uint32_t i, const JoinSide& b, uint32_t j) {
  for (size_t k = 0; k < a.keys.size(); ++k) {
    if (!a.keys[k]->SlotEquals(i, *b.keys[k], j)) return false;
  }
  return true;
}

JoinBuild BuildJoinTable(const JoinSide& build) {
  JoinBuild jb;
  const size_t n = build.view.num_rows;
  std::vector<uint32_t> row_key(n, HashIdTable::kNotFound);
  for (size_t r = 0; r < n; ++r) {
    const uint32_t b = build.Row(r);
    uint64_t h;
    if (!build.KeyHash(b, &h)) continue;
    bool inserted = false;
    row_key[r] = jb.keys.FindOrInsert(
        h,
        [&](uint32_t k) { return KeysEqual(build, b, build, jb.key_rep[k]); },
        &inserted);
    if (inserted) jb.key_rep.push_back(b);
  }
  jb.offsets.assign(jb.key_rep.size() + 1, 0);
  for (uint32_t k : row_key) {
    if (k != HashIdTable::kNotFound) ++jb.offsets[k + 1];
  }
  for (size_t k = 0; k < jb.key_rep.size(); ++k) {
    jb.offsets[k + 1] += jb.offsets[k];
  }
  jb.rows.resize(jb.offsets.back());
  std::vector<uint32_t> fill(jb.offsets.begin(), jb.offsets.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    if (row_key[r] != HashIdTable::kNotFound) {
      jb.rows[fill[row_key[r]]++] = build.Row(r);
    }
  }
  return jb;
}

// One probe morsel's (left base row, right base row) match pairs, charged
// to the query's MemoryTracker as the buffers grow. While a buffer
// reallocates the old and new arrays coexist, so the new charge is taken
// before the old one is released.
struct MatchPairs {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;
  ScopedMemoryCharge charge;
  Status status;

  bool Push(uint32_t l, uint32_t r, MemoryTracker* memory) {
    if (left.size() == left.capacity()) {
      const size_t cap = std::max<size_t>(256, 2 * left.capacity());
      Result<ScopedMemoryCharge> grown = ScopedMemoryCharge::Make(
          memory, 2 * cap * sizeof(uint32_t), "join match pairs");
      if (!grown.ok()) {
        status = grown.status();
        return false;
      }
      left.reserve(cap);
      right.reserve(cap);
      charge = std::move(grown).value();
    }
    left.push_back(l);
    right.push_back(r);
    return true;
  }
};

// Hash join, build side right. The probe runs morsel-parallel over the left
// view; each morsel collects its match pairs, and the morsels concatenate
// in morsel order, so the pair sequence — left rows in order, each with its
// matches in build-row order, unmatched LEFT rows NULL-extended — is the
// serial loop's for every thread count. Each output column is then gathered
// once, straight from the inputs' base tables.
Result<TablePtr> ExecJoin(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(BatchView left_view, Exec(node.child(0), ctx));
  AQP_ASSIGN_OR_RETURN(BatchView right_view, Exec(node.child(1), ctx));
  AQP_ASSIGN_OR_RETURN(
      JoinSide left, MakeJoinSide(std::move(left_view), node.left_keys(), ctx));
  AQP_ASSIGN_OR_RETURN(
      JoinSide right,
      MakeJoinSide(std::move(right_view), node.right_keys(), ctx));
  for (size_t i = 0; i < left.keys.size(); ++i) {
    if (left.keys[i]->type() != right.keys[i]->type()) {
      return Status::InvalidArgument("join key type mismatch: " +
                                     node.left_keys()[i] + " vs " +
                                     node.right_keys()[i]);
    }
  }
  MemoryTracker* memory = ctx.options.memory;
  JoinBuild build = BuildJoinTable(right);
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge build_charge,
      ScopedMemoryCharge::Make(memory, build.ApproxBytes(), "join build"));

  const bool left_outer = node.join_type() == JoinType::kLeftOuter;
  auto probe = [&](size_t begin, size_t end, MatchPairs* out) {
    for (size_t r = begin; r < end; ++r) {
      const uint32_t b = left.Row(r);
      uint64_t h;
      uint32_t k = HashIdTable::kNotFound;
      if (left.KeyHash(b, &h)) {
        k = build.keys.Find(h, [&](uint32_t cand) {
          return KeysEqual(left, b, right, build.key_rep[cand]);
        });
      }
      if (k != HashIdTable::kNotFound) {
        for (uint32_t i = build.offsets[k]; i < build.offsets[k + 1]; ++i) {
          if (!out->Push(b, build.rows[i], memory)) return;
        }
      } else if (left_outer) {
        if (!out->Push(b, Column::kNullRow, memory)) return;
      }
    }
  };
  const size_t n = left.view.num_rows;
  std::vector<MatchPairs> morsels;
  if (!ctx.options.UseMorsels(n)) {
    morsels.resize(1);
    probe(0, n, &morsels[0]);
  } else {
    const size_t morsel_rows = ctx.options.morsel_rows;
    morsels.resize((n + morsel_rows - 1) / morsel_rows);
    ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
        n, morsel_rows, ctx.options.ResolvedThreads(), ctx.pf_options(),
        [&](size_t, size_t m, size_t begin, size_t end) {
          probe(begin, end, &morsels[m]);
        });
    if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
    AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  }
  size_t emitted = 0;
  for (const MatchPairs& m : morsels) {
    AQP_RETURN_IF_ERROR(m.status);
    emitted += m.left.size();
  }
  // The probe is done: free the build table before the output exists.
  build = JoinBuild{};
  build_charge.Reset();
  // Ordered merge: morsel index order IS left-row order. Each morsel's
  // buffers are freed as soon as they are copied out.
  AQP_ASSIGN_OR_RETURN(ScopedMemoryCharge sel_charge,
                       ScopedMemoryCharge::Make(
                           memory, 2 * emitted * sizeof(uint32_t),
                           "join selection"));
  std::vector<uint32_t> left_sel;
  std::vector<uint32_t> right_sel;
  left_sel.reserve(emitted);
  right_sel.reserve(emitted);
  for (MatchPairs& m : morsels) {
    left_sel.insert(left_sel.end(), m.left.begin(), m.left.end());
    right_sel.insert(right_sel.end(), m.right.begin(), m.right.end());
    m = MatchPairs{};
  }

  const BatchView& lv = left.view;
  const BatchView& rv = right.view;
  const size_t num_left = lv.col_idx.size();
  AQP_ASSIGN_OR_RETURN(
      std::vector<Column> columns,
      GatherColumns(num_left + rv.col_idx.size(), emitted, ctx,
                    [&](size_t c) {
                      if (c < num_left) {
                        return GatherViewColumn(lv, c, &left_sel);
                      }
                      return GatherViewColumn(rv, c - num_left, &right_sel,
                                              left_outer);
                    }));
  // Output schema: all left fields then all right fields.
  Schema schema = ViewSchema(lv);
  const Schema right_schema = ViewSchema(rv);
  for (const Field& f : right_schema.fields()) schema.AddField(f);
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(std::move(schema), std::move(columns)));
  if (ctx.stats != nullptr) ctx.stats->rows_joined += emitted;
  return TrackTable(std::move(out), ctx, "join output");
}

Result<TablePtr> ExecAggregate(const PlanNode& node, ExecContext& ctx) {
  // Gather only the columns the group keys and arguments reference.
  std::vector<std::string> refs;
  for (const ExprPtr& e : node.group_exprs()) {
    for (std::string& c : e->ReferencedColumns()) refs.push_back(std::move(c));
  }
  for (const AggSpec& a : node.aggs()) {
    if (a.arg == nullptr) continue;
    for (std::string& c : a.arg->ReferencedColumns()) {
      refs.push_back(std::move(c));
    }
  }
  AQP_ASSIGN_OR_RETURN(BatchView view, Exec(node.child(), ctx));
  AQP_ASSIGN_OR_RETURN(
      TablePtr input,
      MaterializeView(NarrowView(std::move(view), refs), ctx,
                      "batch materialize"));
  AggregateOptions agg_options;
  agg_options.exec = &ctx.options;
  agg_options.run_stats = ctx.run_stats();
  AQP_ASSIGN_OR_RETURN(
      Table out, GroupByAggregate(*input, node.group_exprs(),
                                  node.group_names(), node.aggs(),
                                  agg_options));
  return TrackTable(std::move(out), ctx, "aggregate output");
}

Result<TablePtr> ExecSort(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr input, ExecInput(node.child(), ctx));
  std::vector<size_t> key_cols;
  for (const SortKey& k : node.sort_keys()) {
    AQP_ASSIGN_OR_RETURN(size_t idx, input->ColumnIndex(k.column));
    key_cols.push_back(idx);
  }
  std::vector<uint32_t> order(input->num_rows());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      const Column& col = input->column(key_cols[k]);
      int cmp = CompareForSort(col, a, col, b);
      if (cmp != 0) {
        return node.sort_keys()[k].ascending ? cmp < 0 : cmp > 0;
      }
    }
    return false;
  });
  // Column-parallel gather on the morsel path: the same table for every
  // thread count.
  Table sorted = ctx.options.UseMorsels(order.size())
                     ? input->Take(order, ctx.options.ResolvedThreads(),
                                   ctx.run_stats())
                     : input->Take(order);
  return TrackTable(std::move(sorted), ctx, "sort output");
}

Result<TablePtr> ExecLimit(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr input, ExecInput(node.child(), ctx));
  return TrackTable(input->Slice(0, node.limit()), ctx, "limit output");
}

Result<TablePtr> ExecUnionAll(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(TablePtr first, ExecInput(node.child(0), ctx));
  Table out = *first;  // Copy, then append the rest.
  for (size_t i = 1; i < node.num_children(); ++i) {
    AQP_ASSIGN_OR_RETURN(TablePtr next, ExecInput(node.child(i), ctx));
    AQP_RETURN_IF_ERROR(out.Append(*next));
  }
  return TrackTable(std::move(out), ctx, "union output");
}

const char* OperatorName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "scan";
    case PlanKind::kFilter:
      return "filter";
    case PlanKind::kProject:
      return "project";
    case PlanKind::kJoin:
      return "join";
    case PlanKind::kAggregate:
      return "aggregate";
    case PlanKind::kSort:
      return "sort";
    case PlanKind::kLimit:
      return "limit";
    case PlanKind::kUnionAll:
      return "union_all";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Scan, filter and project produce BatchViews — row ranges or selection
// vectors over the untouched base table — instead of gathered tables;
// project over bare column references is a pure remap. The join and the
// aggregate read their children as views and gather only the rows and
// columns they use; sort, limit and union gather their input once
// (ExecInput). Results are independent of thread count: sampling draws
// per-morsel RNG streams or one block stream, predicate masks are exact (so
// selection membership is independent of morsel boundaries), and gathers
// preserve row order.
// ---------------------------------------------------------------------------

Result<BatchView> ExecScan(const PlanNode& node, ExecContext& ctx) {
  AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail("engine.scan"));
  const SampleSpec& spec = node.sample();
  if (spec.is_sampled()) {
    AQP_RETURN_IF_ERROR(gov::FaultInjector::Global().MaybeFail(
        spec.method == SampleSpec::Method::kSystemBlock ? "sampler.block"
                                                        : "sampler.bernoulli"));
  }
  AQP_ASSIGN_OR_RETURN(ScanInput input, ScanBaseTable(node, ctx));
  if (input.sampled) return IdentityView(std::move(input.table));
  BatchView v = IdentityView(std::move(input.table));
  if (!spec.is_sampled()) {
    if (ctx.stats != nullptr) {
      ctx.stats->rows_scanned += v.num_rows;
      ctx.stats->blocks_read += v.base->NumBlocks(spec.block_size);
    }
    return v;
  }
  // No gather: the sample IS the selection — the kept blocks as row ranges
  // (SYSTEM), or the kept rows' ids (BERNOULLI).
  SampledUnits drawn;
  uint64_t blocks_read = 0;
  if (spec.method == SampleSpec::Method::kSystemBlock) {
    const std::vector<std::pair<uint64_t, uint64_t>> blocks =
        DrawSampleBlocks(v.num_rows, spec);
    blocks_read = blocks.size();
    drawn = DrawnBlocks(blocks);
    AQP_ASSIGN_OR_RETURN(v.ranges, TrackSel(RowRanges::Coalesce(blocks), ctx,
                                            "scan selection"));
    v.num_rows = v.ranges->num_rows();
    ctx.scan_ranges = v.ranges->ranges().size();
  } else {
    AQP_ASSIGN_OR_RETURN(
        std::vector<uint32_t> keep,
        DrawBernoulliKeep(v.num_rows, spec, ctx.options.UseMorsels(v.num_rows),
                          ctx));
    blocks_read = v.base->NumBlocks(spec.block_size);
    drawn = SampledUnits{keep.size(), keep.size(), keep.size()};
    v.num_rows = keep.size();
    AQP_ASSIGN_OR_RETURN(v.sel,
                         TrackSel(std::move(keep), ctx, "scan selection"));
  }
  ctx.scan_units = drawn.units;
  const bool exposes_unit = ExposesUnit(node, ctx);
  if (ctx.stats != nullptr) {
    ctx.stats->rows_scanned += v.num_rows;
    ctx.stats->blocks_read += blocks_read;
    if (exposes_unit) ctx.stats->sampled_units.MergeFrom(drawn);
  }
  if (exposes_unit) {
    // The columns the plan reads, then the units, derived from base rows.
    v.col_idx = ResolveColumns(v.base->schema(), NeededNames(node, ctx));
    v.names.clear();
    for (size_t c : v.col_idx) {
      v.names.push_back(v.base->schema().field(c).name);
    }
    v.col_idx.push_back(kUnitColumn);
    v.names.push_back("__unit");
    v.unit_rows =
        spec.method == SampleSpec::Method::kSystemBlock ? spec.block_size : 1;
  }
  return v;
}

// Runs `body(begin, end, mask, dst)` over the morsels of [0, total) — serially
// on the calling thread, or morsel-parallel with an ordered merge — and
// returns the concatenated selection. `mask` is the worker's mask scratch,
// grown by the body to what it evaluates; the body returns the rows it
// evaluated, summed into *evaluated.
template <typename Body>
Result<std::vector<uint32_t>> SelectByMorsel(size_t total, size_t morsel_rows,
                                             bool parallel, ExecContext& ctx,
                                             uint64_t* evaluated, Body&& body) {
  std::vector<uint32_t> out;
  *evaluated = 0;
  const size_t num_morsels = (total + morsel_rows - 1) / morsel_rows;
  const size_t num_threads = ctx.options.ResolvedThreads();
  if (!parallel || num_threads <= 1 || num_morsels <= 1) {
    std::vector<uint8_t> mask;
    for (size_t begin = 0; begin < total; begin += morsel_rows) {
      AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
      const size_t end = std::min(total, begin + morsel_rows);
      AQP_ASSIGN_OR_RETURN(uint64_t rows, body(begin, end, mask, &out));
      *evaluated += rows;
    }
    return out;
  }
  struct MorselOut {
    std::vector<uint32_t> sel;
    uint64_t evaluated = 0;
    Status status;
  };
  std::vector<MorselOut> local(num_morsels);
  std::vector<std::vector<uint8_t>> masks(num_threads);
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      total, morsel_rows, num_threads, ctx.pf_options(),
      [&](size_t worker, size_t m, size_t begin, size_t end) {
        Result<uint64_t> rows = body(begin, end, masks[worker], &local[m].sel);
        if (rows.ok()) {
          local[m].evaluated = rows.value();
        } else {
          local[m].status = rows.status();
        }
      });
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  size_t selected = 0;
  for (const MorselOut& m : local) {
    AQP_RETURN_IF_ERROR(m.status);
    selected += m.sel.size();
    *evaluated += m.evaluated;
  }
  out.reserve(selected);
  // Ordered merge: morsel index order IS row order.
  for (const MorselOut& m : local) {
    out.insert(out.end(), m.sel.begin(), m.sel.end());
  }
  if (ctx.run_stats() != nullptr) ctx.run_stats()->MergeFrom(rs);
  return out;
}

// Filters a view without materializing it: the predicate compiles against
// the BASE columns (addressed by the view's names) and masks evaluate over
// contiguous base-row spans. What is evaluated follows the input's form:
//   - over row ranges (one range of every base row when the view has no
//     selection), only the kept rows: morsels split the kept rows and cross
//     range boundaries, each evaluating its base-row pieces;
//   - over ids, the base-row morsels holding a selected row, each from its
//     first selected row to its last, intersected with the selection.
// Masks are exact, so the output ids are independent of morsel boundaries
// and thread count.
Result<BatchView> ExecFilter(const PlanNode& node, ExecContext& ctx) {
  if (UseFusedExtentFilter(node, ctx)) {
    // The fused path already gathered exactly the matching rows; the result
    // enters the batch pipeline as an identity view (same as any
    // table-valued operator's output).
    AQP_ASSIGN_OR_RETURN(TablePtr t,
                         ExecExtentFilterScan(node, *node.child(), ctx));
    return IdentityView(std::move(t));
  }
  AQP_ASSIGN_OR_RETURN(BatchView child, Exec(node.child(), ctx));
  const Expr& pred_expr = *node.predicate();
  // Degenerate inputs (empty, constant predicate) run the row evaluator
  // over the materialized child: nothing to vectorize, and constant
  // predicates keep its error behavior.
  if (child.num_rows == 0 || pred_expr.ReferencedColumns().empty()) {
    AQP_ASSIGN_OR_RETURN(TablePtr input,
                         MaterializeView(child, ctx, "filter input"));
    AQP_ASSIGN_OR_RETURN(std::vector<uint32_t> selected,
                         EvalPredicate(pred_expr, *input));
    ctx.rows_evaluated = input->num_rows();
    BatchView out = IdentityView(std::move(input));
    out.num_rows = selected.size();
    AQP_ASSIGN_OR_RETURN(
        out.sel, TrackSel(std::move(selected), ctx, "filter selection"));
    return out;
  }
  AQP_ASSIGN_OR_RETURN(
      child, GatherIfUnitReferenced(std::move(child),
                                    pred_expr.ReferencedColumns(), ctx,
                                    "filter input"));
  // The predicate binds the base columns; a derived unit column it does
  // not read is left out.
  std::vector<std::string> names;
  std::vector<const Column*> cols;
  auto bind_columns = [&] {
    names.clear();
    cols.clear();
    for (size_t i = 0; i < child.col_idx.size(); ++i) {
      if (child.col_idx[i] == kUnitColumn) continue;
      names.push_back(child.names[i]);
      cols.push_back(&child.base->column(child.col_idx[i]));
    }
  };
  bind_columns();
  AQP_ASSIGN_OR_RETURN(BatchPredicate pred,
                       BatchPredicate::Compile(pred_expr, names, cols));
  if (pred.HasFallback() && child.sel != nullptr) {
    // Scalar-fallback nodes evaluate every row of a span; over an id
    // selection the span holds non-selected base rows too, which could raise
    // errors (e.g. x % y with y = 0 on a filtered-out row) that filtering
    // the rows one at a time never sees. Materialize first so the fallback
    // evaluates exactly the selected rows. Row ranges need no such care:
    // their spans hold only kept rows.
    AQP_ASSIGN_OR_RETURN(TablePtr input,
                         MaterializeView(child, ctx, "filter input"));
    child = IdentityView(std::move(input));
    bind_columns();
    AQP_ASSIGN_OR_RETURN(pred,
                         BatchPredicate::Compile(pred_expr, names, cols));
  }
  const size_t base_n = child.base->num_rows();
  size_t morsel_rows = ctx.options.morsel_rows;
  if (morsel_rows == 0) morsel_rows = base_n;
  const size_t num_threads = ctx.options.ResolvedThreads();
  // Parallelize or not by the operator's logical input size, not the base
  // span.
  const bool use_morsels = ctx.options.UseMorsels(child.num_rows);
  // Charge lookup structures (dictionary pages, IN/LIKE bitmaps) plus mask
  // scratch for the evaluation's lifetime; a refused charge surfaces as
  // ResourceExhausted and trips the governor's degradation ladder exactly
  // like an operator-output charge.
  const uint64_t scratch =
      pred.ScratchBytesPerRow() *
      std::min<uint64_t>(base_n,
                         morsel_rows * std::max<size_t>(num_threads, 1));
  ScopedMemoryCharge charge;
  AQP_ASSIGN_OR_RETURN(
      charge, ScopedMemoryCharge::Make(ctx.options.memory,
                                       pred.AuxBytes() + scratch,
                                       "predicate batch buffers"));
  // Evaluates base rows [begin, end) into `mask`, grown to fit.
  auto eval = [&](size_t begin, size_t end,
                  std::vector<uint8_t>& mask) -> Status {
    if (mask.size() < end - begin) mask.resize(end - begin);
    return pred.EvalSpan(begin, end - begin, mask.data());
  };
  std::vector<uint32_t> out_sel;
  uint64_t evaluated = 0;
  if (child.sel == nullptr) {
    // Morsels of kept rows — every base row when the view keeps them all —
    // each evaluating its base-row pieces.
    const RowRanges all =
        child.ranges == nullptr ? RowRanges::All(base_n) : RowRanges();
    const RowRanges& ranges = child.ranges != nullptr ? *child.ranges : all;
    AQP_ASSIGN_OR_RETURN(
        out_sel,
        SelectByMorsel(
            child.num_rows, morsel_rows, use_morsels, ctx, &evaluated,
            [&](size_t first, size_t last, std::vector<uint8_t>& mask,
                std::vector<uint32_t>* dst) -> Result<uint64_t> {
              Status status;
              uint64_t rows = 0;
              ranges.ForEachPiece(first, last, [&](uint32_t b, uint32_t e) {
                if (!status.ok()) return;
                status = eval(b, e, mask);
                rows += e - b;
                if (status.ok()) simd::SelectTrue(mask.data(), e - b, b, dst);
              });
              AQP_RETURN_IF_ERROR(status);
              return rows;
            }));
  } else {
    // Base-row morsels, each evaluated only from its first selected row to
    // its last; a morsel without one costs two binary searches.
    const std::vector<uint32_t>& in_sel = *child.sel;
    AQP_ASSIGN_OR_RETURN(
        out_sel,
        SelectByMorsel(
            base_n, morsel_rows, use_morsels, ctx, &evaluated,
            [&](size_t begin, size_t end, std::vector<uint8_t>& mask,
                std::vector<uint32_t>* dst) -> Result<uint64_t> {
              auto lo = std::lower_bound(in_sel.begin(), in_sel.end(),
                                         static_cast<uint32_t>(begin));
              auto hi = std::lower_bound(lo, in_sel.end(),
                                         static_cast<uint32_t>(end));
              if (lo == hi) return uint64_t{0};
              const size_t first = *lo;
              const size_t last = size_t{*(hi - 1)} + 1;
              AQP_RETURN_IF_ERROR(eval(first, last, mask));
              for (auto it = lo; it != hi; ++it) {
                if (mask[*it - first] == simd::kMaskTrue) dst->push_back(*it);
              }
              return uint64_t{last - first};
            }));
  }
  ctx.rows_evaluated = evaluated;
  BatchView out;
  out.base = child.base;
  out.col_idx = child.col_idx;
  out.names = child.names;
  out.unit_rows = child.unit_rows;
  out.num_rows = out_sel.size();
  AQP_ASSIGN_OR_RETURN(
      out.sel, TrackSel(std::move(out_sel), ctx, "filter selection"));
  return out;
}

// Project over bare column references is a zero-copy column remap; anything
// computed materializes the child and evaluates each expression over it.
Result<BatchView> ExecProject(const PlanNode& node, ExecContext& ctx) {
  AQP_ASSIGN_OR_RETURN(BatchView child, Exec(node.child(), ctx));
  bool all_colrefs = true;
  for (const ExprPtr& e : node.exprs()) {
    if (e->kind() != ExprKind::kColumnRef) {
      all_colrefs = false;
      break;
    }
  }
  if (all_colrefs) {
    BatchView out;
    out.base = child.base;
    out.sel = child.sel;
    out.ranges = child.ranges;
    out.num_rows = child.num_rows;
    out.unit_rows = child.unit_rows;
    out.col_idx.reserve(node.exprs().size());
    out.names.reserve(node.exprs().size());
    const Schema schema = ViewSchema(child);
    for (size_t i = 0; i < node.exprs().size(); ++i) {
      const std::string& ref = node.exprs()[i]->column_name();
      Result<size_t> found = schema.FieldIndex(ref);
      if (!found.ok()) {
        return Status::InvalidArgument("unknown column: " + ref);
      }
      out.col_idx.push_back(child.col_idx[found.value()]);
      out.names.push_back(node.names()[i]);
    }
    return out;
  }
  AQP_ASSIGN_OR_RETURN(TablePtr input,
                       MaterializeView(child, ctx, "project input"));
  const size_t num_exprs = node.exprs().size();
  Schema schema;
  std::vector<Column> columns;
  for (size_t i = 0; i < num_exprs; ++i) {
    AQP_ASSIGN_OR_RETURN(Column c, Eval(*node.exprs()[i], *input));
    schema.AddField({node.names()[i], c.type()});
    columns.push_back(std::move(c));
  }
  AQP_ASSIGN_OR_RETURN(Table out,
                       Table::Make(std::move(schema), std::move(columns)));
  AQP_ASSIGN_OR_RETURN(TablePtr tracked,
                       TrackTable(std::move(out), ctx, "project output"));
  return IdentityView(std::move(tracked));
}

// Runs a table-valued operator: one that materializes its output.
Result<TablePtr> ExecTableOperator(const PlanPtr& plan, ExecContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kJoin:
      return ExecJoin(*plan, ctx);
    case PlanKind::kAggregate:
      return ExecAggregate(*plan, ctx);
    case PlanKind::kSort:
      return ExecSort(*plan, ctx);
    case PlanKind::kLimit:
      return ExecLimit(*plan, ctx);
    case PlanKind::kUnionAll:
      return ExecUnionAll(*plan, ctx);
    default:
      return Status::Internal("unreachable plan kind");
  }
}

Result<BatchView> ExecDispatch(const PlanPtr& plan, ExecContext& ctx) {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecScan(*plan, ctx);
    case PlanKind::kFilter:
      return ExecFilter(*plan, ctx);
    case PlanKind::kProject:
      return ExecProject(*plan, ctx);
    default:
      break;
  }
  // A table-valued operator's output enters the pipeline as the identity
  // view over itself.
  AQP_ASSIGN_OR_RETURN(TablePtr t, ExecTableOperator(plan, ctx));
  return IdentityView(std::move(t));
}

// Runs one plan node. Each node is an operator-boundary cancellation point:
// deadline/user-cancel/memory trips stop the plan between operators even
// when no parallel region runs. When traced, each node gets a span carrying
// its view row count and the morsels, steals and extents THIS operator
// (excluding children, whose spans carry their own deltas) contributed.
Result<BatchView> Exec(const PlanPtr& plan, ExecContext& ctx) {
  AQP_CHECK(plan != nullptr);
  AQP_RETURN_IF_ERROR(CheckCancelled(ctx.options.cancel));
  if (ctx.trace == nullptr) {
    // Untraced path: one branch, no clock reads, no allocations.
    return ExecDispatch(plan, ctx);
  }
  obs::TraceSpan span = ctx.trace->Span(OperatorName(plan->kind()));
  if (plan->kind() == PlanKind::kScan) {
    span.AddAttr("table", plan->table_name());
    const SampleSpec& spec = plan->sample();
    if (spec.is_sampled()) {
      span.AddAttr("sample_method",
                   spec.method == SampleSpec::Method::kSystemBlock
                       ? "system-block"
                       : "bernoulli-row");
      span.AddAttr("sample_rate", spec.rate);
    }
  }
  const ParallelRunStats* rs = ctx.run_stats();
  uint64_t morsels_before = rs != nullptr ? rs->morsels : 0;
  uint64_t steals_before = rs != nullptr ? rs->steals : 0;
  uint64_t extents_before = ctx.stats != nullptr ? ctx.stats->extents_total : 0;
  uint64_t pruned_before = ctx.stats != nullptr ? ctx.stats->extents_pruned : 0;
  Result<BatchView> result = ExecDispatch(plan, ctx);
  if (result.ok()) {
    span.AddAttr("rows_out", uint64_t{result.value().num_rows});
    if (plan->kind() == PlanKind::kScan && plan->sample().is_sampled()) {
      span.AddAttr("units", ctx.scan_units);
      if (plan->sample().method == SampleSpec::Method::kSystemBlock) {
        span.AddAttr("ranges", ctx.scan_ranges);
      }
    }
    if (plan->kind() == PlanKind::kFilter) {
      span.AddAttr("rows_evaluated", ctx.rows_evaluated);
    }
  }
  if (rs != nullptr && rs->morsels > morsels_before) {
    span.AddAttr("parallel_morsels", rs->morsels - morsels_before);
    span.AddAttr("parallel_steals", rs->steals - steals_before);
  }
  if (ctx.stats != nullptr && ctx.stats->extents_total > extents_before) {
    span.AddAttr("extents_total", ctx.stats->extents_total - extents_before);
    span.AddAttr("extents_pruned", ctx.stats->extents_pruned - pruned_before);
  }
  return result;
}

// True when some scan of `plan` reads an extent-backed table or draws a
// sample: the scans whose output follows the plan's column needs.
bool HasNeedScan(const PlanPtr& plan, const Catalog& catalog) {
  if (plan->kind() == PlanKind::kScan) {
    return catalog.IsExtentBacked(plan->table_name()) ||
           plan->sample().is_sampled();
  }
  for (size_t i = 0; i < plan->num_children(); ++i) {
    if (HasNeedScan(plan->child(i), catalog)) return true;
  }
  return false;
}

using Need = std::optional<std::vector<std::string>>;

// Records `need` for `node`, merged with what another path through a shared
// subplan already asked for.
void MergeNeed(const PlanNode* node, const Need& need, ColumnNeeds* needs) {
  auto [it, inserted] = needs->try_emplace(node, need);
  if (inserted || !it->second.has_value()) return;
  if (!need.has_value()) {
    it->second.reset();
    return;
  }
  it->second->insert(it->second->end(), need->begin(), need->end());
}

// Top-down column pass: `need` is what the parent reads of `plan`'s output
// (nullopt = every column). Aggregate and Project cut it to the columns
// they reference, Filter and Sort add theirs, Limit passes it through, and
// Join and UnionAll read every column of their children.
void CollectColumnNeeds(const PlanPtr& plan, const Need& need,
                        const Catalog& catalog, ColumnNeeds* needs) {
  auto with = [&need](std::vector<std::string> refs) -> Need {
    if (!need.has_value()) return std::nullopt;
    refs.insert(refs.end(), need->begin(), need->end());
    return refs;
  };
  auto add_refs = [](const Expr& e, std::vector<std::string>* refs) {
    for (std::string& c : e.ReferencedColumns()) refs->push_back(std::move(c));
  };
  switch (plan->kind()) {
    case PlanKind::kScan:
      if (catalog.IsExtentBacked(plan->table_name()) ||
          plan->sample().is_sampled()) {
        MergeNeed(plan.get(), need, needs);
      }
      return;
    case PlanKind::kFilter:
      // Over a scan the filter may run fused: it outputs only `need`.
      if (plan->child()->kind() == PlanKind::kScan) {
        MergeNeed(plan.get(), need, needs);
      }
      CollectColumnNeeds(plan->child(),
                         with(plan->predicate()->ReferencedColumns()),
                         catalog, needs);
      return;
    case PlanKind::kProject: {
      std::vector<std::string> refs;
      for (const ExprPtr& e : plan->exprs()) add_refs(*e, &refs);
      CollectColumnNeeds(plan->child(), refs, catalog, needs);
      return;
    }
    case PlanKind::kAggregate: {
      std::vector<std::string> refs;
      for (const ExprPtr& e : plan->group_exprs()) add_refs(*e, &refs);
      for (const AggSpec& a : plan->aggs()) {
        if (a.arg != nullptr) add_refs(*a.arg, &refs);
      }
      CollectColumnNeeds(plan->child(), refs, catalog, needs);
      return;
    }
    case PlanKind::kSort: {
      std::vector<std::string> refs;
      for (const SortKey& k : plan->sort_keys()) refs.push_back(k.column);
      CollectColumnNeeds(plan->child(), with(std::move(refs)), catalog,
                         needs);
      return;
    }
    case PlanKind::kLimit:
      CollectColumnNeeds(plan->child(), need, catalog, needs);
      return;
    case PlanKind::kJoin:
    case PlanKind::kUnionAll:
      for (size_t i = 0; i < plan->num_children(); ++i) {
        CollectColumnNeeds(plan->child(i), std::nullopt, catalog, needs);
      }
      return;
  }
}

}  // namespace

Result<Table> Execute(const PlanPtr& plan, const Catalog& catalog,
                      ExecStats* stats, obs::QueryTrace* trace,
                      const ExecOptions& options) {
  const bool instrumented = obs::Enabled();
  ExecStats local;
  // Metrics need the deltas even when the caller didn't ask for stats.
  ExecStats* effective = stats != nullptr ? stats : &local;
  ExecStats before = instrumented ? *effective : ExecStats{};
  ExecContext ctx{catalog, instrumented ? effective : stats, trace, options};
  // Which columns each extent-backed scan decodes and whether a sampled scan
  // outputs "__unit"; the plan root returns rows, so it reads every column
  // of its output.
  ColumnNeeds needs;
  if (HasNeedScan(plan, catalog)) {
    CollectColumnNeeds(plan, std::nullopt, catalog, &needs);
    ctx.needs = &needs;
  }
  // Run the plan as batch views and gather once at the top. The gather is
  // the deferred row movement of the whole pipeline, so it gets its own span
  // with the gather's morsel attribution. The result leaves by value: an
  // identity view's base (a catalog table, or an operator output) is
  // copied, any other view is gathered straight into the returned table,
  // which is charged until it is handed over.
  AQP_ASSIGN_OR_RETURN(BatchView view, Exec(plan, ctx));
  ScopedMemoryCharge result_charge;
  auto materialize = [&]() -> Result<Table> {
    if (ViewIsIdentity(view)) return *view.base;
    AQP_ASSIGN_OR_RETURN(Table t, GatherView(view, ctx));
    AQP_ASSIGN_OR_RETURN(
        result_charge, ScopedMemoryCharge::Make(ctx.options.memory,
                                                t.ApproxBytes(),
                                                "result materialize"));
    return t;
  };
  Table result;
  if (trace == nullptr) {
    AQP_ASSIGN_OR_RETURN(result, materialize());
  } else {
    obs::TraceSpan span = trace->Span("materialize");
    const ParallelRunStats* rs = ctx.run_stats();
    uint64_t morsels_before = rs != nullptr ? rs->morsels : 0;
    uint64_t steals_before = rs != nullptr ? rs->steals : 0;
    AQP_ASSIGN_OR_RETURN(result, materialize());
    span.AddAttr("rows_out", uint64_t{result.num_rows()});
    if (rs != nullptr && rs->morsels > morsels_before) {
      span.AddAttr("parallel_morsels", rs->morsels - morsels_before);
      span.AddAttr("parallel_steals", rs->steals - steals_before);
    }
  }
  if (instrumented) {
    // Handles cached across calls: one registry lock each, first call only.
    static obs::Counter* plans = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_plans_executed_total");
    static obs::Counter* rows = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_rows_scanned_total");
    static obs::Counter* blocks = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_blocks_read_total");
    static obs::Counter* joined = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_rows_joined_total");
    static obs::Counter* morsels = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_parallel_morsels_total");
    static obs::Counter* steals = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_parallel_steals_total");
    static obs::Counter* extents = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_extents_scanned_total");
    static obs::Counter* pruned = obs::MetricsRegistry::Global().GetCounter(
        "aqp_engine_extents_pruned_total");
    plans->Increment();
    rows->Increment(effective->rows_scanned - before.rows_scanned);
    blocks->Increment(effective->blocks_read - before.blocks_read);
    joined->Increment(effective->rows_joined - before.rows_joined);
    morsels->Increment(effective->parallel.morsels - before.parallel.morsels);
    steals->Increment(effective->parallel.steals - before.parallel.steals);
    extents->Increment(effective->extents_total - before.extents_total);
    pruned->Increment(effective->extents_pruned - before.extents_pruned);
  }
  return result;
}

Result<TablePtr> ReadTable(const Catalog& catalog, const std::string& name,
                           const std::vector<std::string>* columns,
                           const ExecOptions& exec, ExecStats* stats,
                           uint64_t max_rows) {
  auto it = catalog.tables_.find(name);
  if (it != catalog.tables_.end()) return it->second;
  auto ext = catalog.extent_tables_.find(name);
  if (ext == catalog.extent_tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  const extent::ExtentReader& reader = *ext->second;
  const std::vector<size_t> cols = ResolveColumns(reader.schema(), columns);
  ExecContext ctx{catalog, stats, nullptr, exec};
  const ExtentScanOptions opts = MakeExtentScanOptions(reader.num_rows(), ctx);
  ExtentScanStats es;
  AQP_ASSIGN_OR_RETURN(
      Table t, max_rows > 0 && max_rows < reader.num_rows()
                   ? ReadExtentRows(reader, {{0, max_rows}}, opts, &es, &cols)
                   : ReadAllExtents(reader, opts, &es, &cols));
  MergeExtentStats(es, ctx);
  return TrackTable(std::move(t), ctx, "extent scan output");
}

}  // namespace aqp
