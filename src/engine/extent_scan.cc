#include "engine/extent_scan.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "expr/vector_eval.h"
#include "obs/metrics.h"

namespace aqp {
namespace {

// `lit` may lie within [min, max]? nullopt comparisons conservatively say
// yes.
bool LiteralInBounds(const Value& lit, const Value& min, const Value& max) {
  std::optional<int> lo = TryCompareValues(lit, min);
  std::optional<int> hi = TryCompareValues(lit, max);
  if (!lo.has_value() || !hi.has_value()) return true;
  return *lo >= 0 && *hi <= 0;
}

void Collect(const Expr& e, const Schema& schema,
             std::vector<PruneConjunct>* out) {
  if (e.kind() == ExprKind::kBinary && e.op() == OpKind::kAnd) {
    Collect(*e.child(0), schema, out);
    Collect(*e.child(1), schema, out);
    return;
  }
  if (e.kind() == ExprKind::kBinary) {
    OpKind op = e.op();
    if (op != OpKind::kEq && op != OpKind::kLt && op != OpKind::kLe &&
        op != OpKind::kGt && op != OpKind::kGe) {
      return;
    }
    const Expr* lhs = e.child(0).get();
    const Expr* rhs = e.child(1).get();
    if (lhs->kind() == ExprKind::kLiteral &&
        rhs->kind() == ExprKind::kColumnRef) {
      // literal <op> col == col <flipped-op> literal.
      std::swap(lhs, rhs);
      switch (op) {
        case OpKind::kLt: op = OpKind::kGt; break;
        case OpKind::kLe: op = OpKind::kGe; break;
        case OpKind::kGt: op = OpKind::kLt; break;
        case OpKind::kGe: op = OpKind::kLe; break;
        default: break;
      }
    }
    if (lhs->kind() != ExprKind::kColumnRef ||
        rhs->kind() != ExprKind::kLiteral || rhs->literal().is_null()) {
      return;
    }
    Result<size_t> col = schema.FieldIndex(lhs->column_name());
    if (!col.ok()) return;
    PruneConjunct c;
    c.col = col.value();
    switch (op) {
      case OpKind::kEq: c.kind = PruneConjunct::Kind::kEq; break;
      case OpKind::kLt: c.kind = PruneConjunct::Kind::kLt; break;
      case OpKind::kLe: c.kind = PruneConjunct::Kind::kLe; break;
      case OpKind::kGt: c.kind = PruneConjunct::Kind::kGt; break;
      case OpKind::kGe: c.kind = PruneConjunct::Kind::kGe; break;
      default: return;
    }
    c.a = rhs->literal();
    out->push_back(std::move(c));
    return;
  }
  if (e.kind() == ExprKind::kBetween &&
      e.child(0)->kind() == ExprKind::kColumnRef &&
      e.child(1)->kind() == ExprKind::kLiteral &&
      e.child(2)->kind() == ExprKind::kLiteral &&
      !e.child(1)->literal().is_null() && !e.child(2)->literal().is_null()) {
    Result<size_t> col = schema.FieldIndex(e.child(0)->column_name());
    if (!col.ok()) return;
    PruneConjunct c;
    c.col = col.value();
    c.kind = PruneConjunct::Kind::kBetween;
    c.a = e.child(1)->literal();
    c.b = e.child(2)->literal();
    out->push_back(std::move(c));
    return;
  }
  if (e.kind() == ExprKind::kIn &&
      e.child(0)->kind() == ExprKind::kColumnRef) {
    Result<size_t> col = schema.FieldIndex(e.child(0)->column_name());
    if (!col.ok()) return;
    PruneConjunct c;
    c.col = col.value();
    c.kind = PruneConjunct::Kind::kIn;
    c.values = e.in_list();
    out->push_back(std::move(c));
  }
}

bool ConjunctMayMatch(const extent::ExtentMeta& meta,
                      const PruneConjunct& c) {
  if (c.col >= meta.chunks.size()) return true;
  const extent::ZoneMap& z = meta.chunks[c.col].zone;
  // Every comparison/IN/BETWEEN over an all-NULL chunk is never true.
  if (z.null_count >= meta.row_count) return false;
  if (!z.has_bounds) return true;
  switch (c.kind) {
    case PruneConjunct::Kind::kEq:
      return LiteralInBounds(c.a, z.min, z.max);
    case PruneConjunct::Kind::kLt: {
      // Some row < lit requires min < lit.
      std::optional<int> cmp = TryCompareValues(z.min, c.a);
      return !cmp.has_value() || *cmp < 0;
    }
    case PruneConjunct::Kind::kLe: {
      std::optional<int> cmp = TryCompareValues(z.min, c.a);
      return !cmp.has_value() || *cmp <= 0;
    }
    case PruneConjunct::Kind::kGt: {
      std::optional<int> cmp = TryCompareValues(z.max, c.a);
      return !cmp.has_value() || *cmp > 0;
    }
    case PruneConjunct::Kind::kGe: {
      std::optional<int> cmp = TryCompareValues(z.max, c.a);
      return !cmp.has_value() || *cmp >= 0;
    }
    case PruneConjunct::Kind::kBetween: {
      // Overlap test: max >= lo && min <= hi.
      std::optional<int> lo = TryCompareValues(z.max, c.a);
      std::optional<int> hi = TryCompareValues(z.min, c.b);
      if (lo.has_value() && *lo < 0) return false;
      if (hi.has_value() && *hi > 0) return false;
      return true;
    }
    case PruneConjunct::Kind::kIn: {
      if (c.values.empty()) return false;  // IN () matches nothing.
      for (const Value& v : c.values) {
        if (v.is_null()) continue;  // NULL list entries never equal a row.
        if (LiteralInBounds(v, z.min, z.max)) return true;
      }
      return false;
    }
  }
  return true;
}

void CountPrunedExtents(uint64_t pruned) {
  if (pruned == 0 || !obs::Enabled()) return;
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "engine.extent_scan.pruned");
  counter->Increment(pruned);
}

}  // namespace

std::vector<PruneConjunct> ExtractPruneConjuncts(const Expr& pred,
                                                 const Schema& schema) {
  std::vector<PruneConjunct> out;
  Collect(pred, schema, &out);
  return out;
}

bool ExtentMayMatch(const extent::ExtentMeta& meta,
                    const std::vector<PruneConjunct>& conjuncts) {
  for (const PruneConjunct& c : conjuncts) {
    if (!ConjunctMayMatch(meta, c)) return false;
  }
  return true;
}

namespace {

// Decoded in-memory size of columns `cols` of extent `meta`, what a
// transient decode charges: row_count × (width + 1) per fixed-width column,
// plus — when any string column is among `cols` — the part of
// meta.raw_bytes the schema's fixed-width columns do not account for.
uint64_t ProjectedDecodedBytes(const extent::ExtentMeta& meta,
                               const Schema& schema,
                               const std::vector<size_t>& cols) {
  auto fixed_bytes = [&](DataType type) -> uint64_t {
    if (type == DataType::kString) return 0;
    const uint64_t width = type == DataType::kBool ? 1 : 8;
    return uint64_t{meta.row_count} * (width + 1);
  };
  uint64_t all_fixed = 0;
  for (const Field& f : schema.fields()) all_fixed += fixed_bytes(f.type);
  const uint64_t strings =
      meta.raw_bytes > all_fixed ? meta.raw_bytes - all_fixed : 0;
  uint64_t bytes = 0;
  bool any_string = false;
  for (size_t c : cols) {
    bytes += fixed_bytes(schema.field(c).type);
    any_string = any_string || schema.field(c).type == DataType::kString;
  }
  return any_string ? bytes + strings : bytes;
}

// The rows of one decoded extent a scan keeps; nullopt keeps all of them.
using RowSelection = std::optional<std::vector<uint32_t>>;

std::vector<size_t> AllColumns(const Schema& schema) {
  std::vector<size_t> cols(schema.num_fields());
  for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
  return cols;
}

// Concatenates `parts` column by column: each output column is reserved
// once and filled with one bulk range copy per part, and each part column
// is freed as soon as it has been copied.
Result<Table> Assemble(const Schema& schema, std::vector<Table>& parts) {
  if (parts.size() == 1) return std::move(parts[0]);
  size_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  std::vector<Column> columns;
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const DataType type = schema.field(c).type;
    Column col(type);
    col.Reserve(total);
    for (Table& p : parts) {
      col.AppendRange(p.column(c), 0, p.num_rows());
      p.mutable_column(c) = Column(type);
    }
    columns.push_back(std::move(col));
  }
  return Table::Make(schema, std::move(columns));
}

// The one extent scan loop. Decodes columns `decode` of each extent in
// `extents` (ascending) morsel-parallel, asks `select(slot, decoded)` which
// rows to keep, and keeps those rows of the first `num_out` decoded columns
// — the output columns. Parts are assembled in extent order, so the result
// is identical for every thread count. With `transient` set, each decode is
// a governed allocation charged only while its iteration holds it; a
// refused charge surfaces as ResourceExhausted.
template <typename Select>
Result<Table> ScanExtents(const extent::ExtentReader& reader,
                          const std::vector<size_t>& extents,
                          const std::vector<size_t>& decode, size_t num_out,
                          bool transient, const ExtentScanOptions& options,
                          ExtentScanStats* stats, Select&& select) {
  std::vector<Field> fields;
  for (size_t k = 0; k < num_out; ++k) {
    fields.push_back(reader.schema().field(decode[k]));
  }
  const Schema out_schema(std::move(fields));
  if (extents.empty()) return Table(out_schema);
  std::vector<Result<Table>> parts(
      extents.size(), Result<Table>(Status::Internal("extent not read")));
  const size_t threads = std::max<size_t>(options.num_threads, 1);
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      extents.size(), /*morsel_items=*/1, threads,
      ThreadPool::ParallelForOptions{options.cancel},
      [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          const size_t e = extents[s];
          ScopedMemoryCharge charge;
          if (transient) {
            Result<ScopedMemoryCharge> c = ScopedMemoryCharge::Make(
                options.memory,
                ProjectedDecodedBytes(reader.extent(e), reader.schema(),
                                      decode),
                "extent decode");
            if (!c.ok()) {
              parts[s] = c.status();
              continue;
            }
            charge = std::move(c).value();
          }
          Result<Table> decoded = reader.ReadExtentColumns(e, decode);
          if (!decoded.ok()) {
            parts[s] = std::move(decoded);
            continue;
          }
          Table& t = decoded.value();
          Result<RowSelection> keep = select(s, t);
          if (!keep.ok()) {
            parts[s] = keep.status();
            continue;
          }
          std::vector<Column> columns;
          columns.reserve(num_out);
          for (size_t k = 0; k < num_out; ++k) {
            columns.push_back(keep.value().has_value()
                                  ? t.column(k).Take(*keep.value())
                                  : std::move(t.mutable_column(k)));
          }
          parts[s] = Table::Make(out_schema, std::move(columns));
        }
      });
  if (options.run_stats != nullptr) options.run_stats->MergeFrom(rs);
  // A cancellation mid-read leaves unread placeholder errors behind; bail
  // before the assembly mistakes them for real failures.
  AQP_RETURN_IF_ERROR(CheckCancelled(options.cancel));
  std::vector<Table> tables;
  tables.reserve(parts.size());
  for (Result<Table>& part : parts) {
    AQP_ASSIGN_OR_RETURN(Table t, std::move(part));
    tables.push_back(std::move(t));
  }
  for (size_t e : extents) stats->rows_read += reader.extent(e).row_count;
  stats->extents_read += extents.size();
  return Assemble(out_schema, tables);
}

}  // namespace

Result<Table> ReadAllExtents(const extent::ExtentReader& reader,
                             const ExtentScanOptions& options,
                             ExtentScanStats* stats,
                             const std::vector<size_t>* columns) {
  const size_t n = reader.num_extents();
  stats->extents_total += n;
  const std::vector<size_t> decode =
      columns != nullptr ? *columns : AllColumns(reader.schema());
  // The whole decode is charged before any of it happens, so a file that
  // does not fit the budget is refused, not materialized and then refused.
  uint64_t projected = 0;
  for (size_t i = 0; i < n; ++i) {
    projected +=
        ProjectedDecodedBytes(reader.extent(i), reader.schema(), decode);
  }
  AQP_ASSIGN_OR_RETURN(
      ScopedMemoryCharge charge,
      ScopedMemoryCharge::Make(options.memory, projected, "extent read"));
  std::vector<size_t> extents(n);
  for (size_t i = 0; i < n; ++i) extents[i] = i;
  return ScanExtents(reader, extents, decode, decode.size(),
                     /*transient=*/false, options, stats,
                     [](size_t, const Table&) -> Result<RowSelection> {
                       return RowSelection();
                     });
}

Result<Table> FusedExtentFilterScan(const extent::ExtentReader& reader,
                                    const Expr& pred,
                                    const ExtentScanOptions& options,
                                    ExtentScanStats* stats,
                                    const std::vector<size_t>* columns) {
  const Schema& schema = reader.schema();
  const std::vector<PruneConjunct> conjuncts =
      ExtractPruneConjuncts(pred, schema);
  const size_t n = reader.num_extents();
  stats->extents_total += n;
  std::vector<size_t> survivors;
  survivors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ExtentMayMatch(reader.extent(i), conjuncts)) survivors.push_back(i);
  }
  stats->extents_pruned += n - survivors.size();
  CountPrunedExtents(n - survivors.size());

  // Decode the output columns first, then the predicate's other columns. A
  // reference the schema cannot resolve decodes every column, so the
  // predicate reports the same error it would over the whole extent.
  std::vector<size_t> decode =
      columns != nullptr ? *columns : AllColumns(schema);
  const size_t num_out = decode.size();
  std::vector<size_t> pred_cols;
  for (const std::string& ref : pred.ReferencedColumns()) {
    Result<size_t> c = schema.FieldIndex(ref);
    if (!c.ok()) {
      pred_cols = AllColumns(schema);
      break;
    }
    pred_cols.push_back(c.value());
  }
  for (size_t c : pred_cols) {
    if (std::find(decode.begin(), decode.end(), c) == decode.end()) {
      decode.push_back(c);
    }
  }
  return ScanExtents(
      reader, survivors, decode, num_out, /*transient=*/true, options, stats,
      [&](size_t, const Table& t) -> Result<RowSelection> {
        // The in-memory filter's compiled kernel, one morsel per extent (the
        // extents already run in parallel); its mask scratch is charged.
        AQP_ASSIGN_OR_RETURN(
            std::vector<uint32_t> sel,
            EvalPredicateBatch(pred, t, t.num_rows(), 1, nullptr,
                               options.cancel, options.memory));
        if (sel.size() == t.num_rows()) return RowSelection();
        return RowSelection(std::move(sel));
      });
}

Result<Table> ReadExtentRows(
    const extent::ExtentReader& reader,
    const std::vector<std::pair<uint64_t, uint64_t>>& ranges,
    const ExtentScanOptions& options, ExtentScanStats* stats,
    const std::vector<size_t>* columns) {
  const size_t n = reader.num_extents();
  stats->extents_total += n;
  // Walk ranges and extents together: each touched extent gets the
  // extent-local row indices of every range overlapping it, and a range
  // straddling an extent boundary contributes to both extents.
  std::vector<size_t> touched;
  std::vector<RowSelection> keep;
  size_t r = 0;
  for (size_t i = 0; i < n && r < ranges.size(); ++i) {
    const extent::ExtentMeta& e = reader.extent(i);
    const uint64_t lo = e.row_start;
    const uint64_t hi = e.row_start + e.row_count;
    std::vector<uint32_t> local;
    for (size_t q = r; q < ranges.size() && ranges[q].first < hi; ++q) {
      const uint64_t b = std::max(ranges[q].first, lo);
      const uint64_t en = std::min(ranges[q].second, hi);
      for (uint64_t row = b; row < en; ++row) {
        local.push_back(static_cast<uint32_t>(row - lo));
      }
    }
    // Ranges ending inside this extent are done with.
    while (r < ranges.size() && ranges[r].second <= hi) ++r;
    if (local.empty()) continue;
    touched.push_back(i);
    if (local.size() == e.row_count) {
      keep.emplace_back();
    } else {
      keep.emplace_back(std::move(local));
    }
  }
  stats->extents_pruned += n - touched.size();
  CountPrunedExtents(n - touched.size());
  const std::vector<size_t> decode =
      columns != nullptr ? *columns : AllColumns(reader.schema());
  return ScanExtents(reader, touched, decode, decode.size(),
                     /*transient=*/true, options, stats,
                     [&](size_t s, const Table&) -> Result<RowSelection> {
                       return std::move(keep[s]);
                     });
}

}  // namespace aqp
