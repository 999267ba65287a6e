#include "expr/vector_eval.h"

#include <algorithm>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "expr/eval.h"

namespace aqp {
namespace {

using simd::kMaskFalse;
using simd::kMaskNull;
using simd::kMaskTrue;

simd::CmpOp ToCmpOp(OpKind op) {
  switch (op) {
    case OpKind::kEq:
      return simd::CmpOp::kEq;
    case OpKind::kNe:
      return simd::CmpOp::kNe;
    case OpKind::kLt:
      return simd::CmpOp::kLt;
    case OpKind::kLe:
      return simd::CmpOp::kLe;
    case OpKind::kGt:
      return simd::CmpOp::kGt;
    default:
      return simd::CmpOp::kGe;
  }
}

// a OP b  ==  b MIRROR(OP) a — used when the literal is on the left.
OpKind MirrorOp(OpKind op) {
  switch (op) {
    case OpKind::kLt:
      return OpKind::kGt;
    case OpKind::kLe:
      return OpKind::kGe;
    case OpKind::kGt:
      return OpKind::kLt;
    case OpKind::kGe:
      return OpKind::kLe;
    default:
      return op;  // Eq/Ne are symmetric.
  }
}

bool IsComparison(OpKind op) {
  return op == OpKind::kEq || op == OpKind::kNe || op == OpKind::kLt ||
         op == OpKind::kLe || op == OpKind::kGt || op == OpKind::kGe;
}

// Three-way comparison in double space following the row evaluator's
// comparator: NaN pairs compare "equal".
inline bool HoldsF64(OpKind op, double x, double y) {
  switch (op) {
    case OpKind::kEq:
      return !(x < y) && !(x > y);
    case OpKind::kNe:
      return x < y || x > y;
    case OpKind::kLt:
      return x < y;
    case OpKind::kLe:
      return !(x > y);
    case OpKind::kGt:
      return x > y;
    default:
      return !(x < y);
  }
}

inline bool HoldsI64(OpKind op, int64_t x, int64_t y) {
  switch (op) {
    case OpKind::kEq:
      return x == y;
    case OpKind::kNe:
      return x != y;
    case OpKind::kLt:
      return x < y;
    case OpKind::kLe:
      return x <= y;
    case OpKind::kGt:
      return x > y;
    default:
      return x >= y;
  }
}

enum class NK : uint8_t {
  kConst,      // const_val for every row
  kBoolCol,    // bare boolean column reference
  kCmpF64,     // DOUBLE column vs numeric literal (double space)
  kCmpI64F64,  // INT64 column vs numeric literal, widened to double space
  kCmpI64,     // INT64 column vs INT64 bound in int64 space (BETWEEN rule)
  kCmpBool,    // BOOL column vs bool literal
  kStrRange,   // dictionary code in [lo, hi), optionally negated
  kStrBitmap,  // dictionary code bitmap membership (IN / LIKE)
  kInNum,      // numeric column IN sorted double set
  kCmpColCol,  // numeric column vs numeric column
  kAnd,
  kOr,
  kNot,
  kFallback,  // row-at-a-time interpreter over the span
};

}  // namespace

struct BatchPredicate::Node {
  NK kind;
  const Column* col = nullptr;
  const Column* col2 = nullptr;  // kCmpColCol right side
  simd::CmpOp cmp = simd::CmpOp::kEq;
  OpKind op = OpKind::kEq;  // kCmpColCol / kCmpBool
  double dval = 0.0;
  int64_t ival = 0;
  uint8_t const_val = kMaskFalse;
  bool neg = false;        // kStrRange: true for Ne
  bool miss_null = false;  // kStrBitmap: unmatched row is NULL (IN w/ NULL)
  uint32_t lo = 0;         // kStrRange
  uint32_t hi = 0;
  std::shared_ptr<const StringDictionary> dict;
  std::vector<uint8_t> bits;    // kStrBitmap, one byte per code
  std::vector<double> in_vals;  // kInNum sorted values (kCmpColCol unused)
  bool in_has_null = false;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;
  // kFallback: the subtree plus its referenced columns.
  const Expr* fexpr = nullptr;
  Schema fschema;
  std::vector<const Column*> fcols;
};

namespace {

using Node = BatchPredicate::Node;
using NodePtr = std::unique_ptr<Node>;

NodePtr MakeConst(uint8_t v) {
  auto n = std::make_unique<Node>();
  n->kind = NK::kConst;
  n->const_val = v;
  return n;
}

struct Binder {
  const std::vector<std::string>* names;
  const std::vector<const Column*>* cols;

  // Same two-pass resolution as Schema::FieldIndex: exact match first, then
  // a unique unqualified-vs-"<qualifier>.<name>" suffix match, so the batch
  // compiler binds exactly the columns the scalar evaluator would (nullptr
  // on both not-found and ambiguous).
  const Column* Find(const std::string& name) const {
    for (size_t i = 0; i < names->size(); ++i) {
      if ((*names)[i] == name) return (*cols)[i];
    }
    if (name.find('.') != std::string::npos) return nullptr;
    const std::string suffix = "." + name;
    const Column* found = nullptr;
    int matches = 0;
    for (size_t i = 0; i < names->size(); ++i) {
      const std::string& f = (*names)[i];
      if (f.size() > suffix.size() &&
          f.compare(f.size() - suffix.size(), suffix.size(), suffix) == 0) {
        found = (*cols)[i];
        ++matches;
      }
    }
    return matches == 1 ? found : nullptr;
  }
};

// Compiles a subtree the kernel set cannot express into a scalar-interpreter
// node. A constant subtree (no column references) folds at compile time so
// EvalSpan never pays for it — the fold runs the interpreter once, exactly
// as the row evaluator would per row.
Result<NodePtr> MakeFallback(const Expr& expr, const Binder& binder) {
  std::vector<std::string> refs = expr.ReferencedColumns();
  if (refs.empty()) {
    Schema dummy_schema;
    dummy_schema.AddField({"__row", DataType::kInt64});
    std::vector<Column> dummy_cols;
    dummy_cols.push_back(Column::FromInt64({0}));
    AQP_ASSIGN_OR_RETURN(
        Table one_row,
        Table::Make(std::move(dummy_schema), std::move(dummy_cols)));
    AQP_ASSIGN_OR_RETURN(Column v, Eval(expr, one_row));
    if (v.type() != DataType::kBool) {
      return Status::InvalidArgument("predicate is not boolean: " +
                                     expr.ToString());
    }
    return MakeConst(v.IsNull(0) ? kMaskNull
                                 : (v.BoolAt(0) ? kMaskTrue : kMaskFalse));
  }
  auto n = std::make_unique<Node>();
  n->kind = NK::kFallback;
  n->fexpr = &expr;
  for (const std::string& name : refs) {
    const Column* col = binder.Find(name);
    if (col == nullptr) {
      return Status::InvalidArgument("unknown column: " + name);
    }
    n->fschema.AddField({name, col->type()});
    n->fcols.push_back(col);
  }
  return n;
}

// col OP literal with the binary-comparison promotion rule: numeric
// comparisons run in double space regardless of column type.
Result<NodePtr> MakeCmpColLit(const Column* col, OpKind op, const Value& lit,
                              const Expr& whole, const Binder& binder) {
  if (lit.is_null()) return MakeConst(kMaskNull);
  auto n = std::make_unique<Node>();
  if (IsNumeric(col->type()) && IsNumeric(lit.type())) {
    n->kind = col->type() == DataType::kInt64 ? NK::kCmpI64F64 : NK::kCmpF64;
    n->col = col;
    n->cmp = ToCmpOp(op);
    n->dval = lit.AsDouble();
    return n;
  }
  if (col->type() == DataType::kString && lit.is_string()) {
    auto dict = col->EnsureDictionary();
    const uint32_t ncodes = static_cast<uint32_t>(dict->num_values());
    n->kind = NK::kStrRange;
    n->col = col;
    n->dict = std::move(dict);
    switch (op) {
      case OpKind::kEq:
      case OpKind::kNe: {
        uint32_t c = 0;
        if (n->dict->CodeOf(lit.str(), &c)) {
          n->lo = c;
          n->hi = c + 1;
        } else {
          n->lo = n->hi = 0;  // empty range: nothing matches
        }
        n->neg = op == OpKind::kNe;
        break;
      }
      case OpKind::kLt:
        n->lo = 0;
        n->hi = n->dict->LowerBound(lit.str());
        break;
      case OpKind::kLe:
        n->lo = 0;
        n->hi = n->dict->UpperBound(lit.str());
        break;
      case OpKind::kGt:
        n->lo = n->dict->UpperBound(lit.str());
        n->hi = ncodes;
        break;
      default:  // kGe
        n->lo = n->dict->LowerBound(lit.str());
        n->hi = ncodes;
        break;
    }
    return n;
  }
  if (col->type() == DataType::kBool && lit.is_bool()) {
    n->kind = NK::kCmpBool;
    n->col = col;
    n->op = op;
    n->ival = lit.boolean() ? 1 : 0;
    return n;
  }
  // Type mixes the kernels don't cover (the interpreter may still reject
  // them — fallback reproduces whatever it does).
  return MakeFallback(whole, binder);
}

// One BETWEEN bound, with the BETWEEN promotion rule: the scalar evaluator
// materializes literal bounds as columns and compares via CompareSlots, so
// INT64 column vs INT64 bound compares in int64 space (unlike binary
// comparisons, which always widen to double).
NodePtr MakeBetweenBound(const Column* col, OpKind op, const Value& bound) {
  auto n = std::make_unique<Node>();
  n->col = col;
  n->cmp = ToCmpOp(op);
  if (col->type() == DataType::kInt64 && bound.is_int64()) {
    n->kind = NK::kCmpI64;
    n->ival = bound.int64();
  } else {
    n->kind = col->type() == DataType::kInt64 ? NK::kCmpI64F64 : NK::kCmpF64;
    n->dval = bound.AsDouble();
  }
  return n;
}

Result<NodePtr> CompileBool(const Expr& expr, const Binder& binder);

Result<NodePtr> CompileBinary(const Expr& expr, const Binder& binder) {
  const OpKind op = expr.op();
  if (op == OpKind::kAnd || op == OpKind::kOr) {
    auto n = std::make_unique<Node>();
    n->kind = op == OpKind::kAnd ? NK::kAnd : NK::kOr;
    AQP_ASSIGN_OR_RETURN(n->a, CompileBool(*expr.child(0), binder));
    AQP_ASSIGN_OR_RETURN(n->b, CompileBool(*expr.child(1), binder));
    return n;
  }
  if (!IsComparison(op)) return MakeFallback(expr, binder);
  const Expr& l = *expr.child(0);
  const Expr& r = *expr.child(1);
  if (l.kind() == ExprKind::kColumnRef && r.kind() == ExprKind::kLiteral) {
    const Column* col = binder.Find(l.column_name());
    if (col == nullptr) {
      return Status::InvalidArgument("unknown column: " + l.column_name());
    }
    return MakeCmpColLit(col, op, r.literal(), expr, binder);
  }
  if (l.kind() == ExprKind::kLiteral && r.kind() == ExprKind::kColumnRef) {
    const Column* col = binder.Find(r.column_name());
    if (col == nullptr) {
      return Status::InvalidArgument("unknown column: " + r.column_name());
    }
    return MakeCmpColLit(col, MirrorOp(op), l.literal(), expr, binder);
  }
  if (l.kind() == ExprKind::kColumnRef && r.kind() == ExprKind::kColumnRef) {
    const Column* lc = binder.Find(l.column_name());
    const Column* rc = binder.Find(r.column_name());
    if (lc == nullptr || rc == nullptr) {
      return Status::InvalidArgument("unknown column in comparison");
    }
    if (IsNumeric(lc->type()) && IsNumeric(rc->type())) {
      auto n = std::make_unique<Node>();
      n->kind = NK::kCmpColCol;
      n->col = lc;
      n->col2 = rc;
      n->op = op;
      return n;
    }
    return MakeFallback(expr, binder);  // string/bool column pairs
  }
  return MakeFallback(expr, binder);  // computed operands
}

Result<NodePtr> CompileIn(const Expr& expr, const Binder& binder) {
  const Expr& operand = *expr.child(0);
  if (operand.kind() != ExprKind::kColumnRef) {
    return MakeFallback(expr, binder);
  }
  const Column* col = binder.Find(operand.column_name());
  if (col == nullptr) {
    return Status::InvalidArgument("unknown column: " + operand.column_name());
  }
  bool has_null = false;
  for (const Value& v : expr.in_list()) {
    if (v.is_null()) has_null = true;
  }
  if (IsNumeric(col->type())) {
    // Numeric IN probes a sorted double set per row — the same double-space
    // equality the scalar evaluator applies to each list element.
    auto n = std::make_unique<Node>();
    n->kind = NK::kInNum;
    n->col = col;
    n->in_has_null = has_null;
    for (const Value& v : expr.in_list()) {
      if (!v.is_null()) n->in_vals.push_back(v.AsDouble());
    }
    std::sort(n->in_vals.begin(), n->in_vals.end());
    return n;
  }
  if (col->type() == DataType::kString) {
    auto n = std::make_unique<Node>();
    n->kind = NK::kStrBitmap;
    n->col = col;
    n->dict = col->EnsureDictionary();
    n->bits.assign(n->dict->num_values(), 0);
    for (const Value& v : expr.in_list()) {
      if (v.is_null()) continue;
      uint32_t c = 0;
      if (n->dict->CodeOf(v.str(), &c)) n->bits[c] = 1;
    }
    n->miss_null = has_null;
    return n;
  }
  return MakeFallback(expr, binder);  // bool IN — rare
}

Result<NodePtr> CompileBool(const Expr& expr, const Binder& binder) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = expr.literal();
      if (v.is_null()) return MakeConst(kMaskNull);
      if (v.is_bool()) {
        return MakeConst(v.boolean() ? kMaskTrue : kMaskFalse);
      }
      return MakeFallback(expr, binder);  // non-bool literal: let Eval reject
    }
    case ExprKind::kColumnRef: {
      const Column* col = binder.Find(expr.column_name());
      if (col == nullptr) {
        return Status::InvalidArgument("unknown column: " +
                                       expr.column_name());
      }
      if (col->type() != DataType::kBool) return MakeFallback(expr, binder);
      auto n = std::make_unique<Node>();
      n->kind = NK::kBoolCol;
      n->col = col;
      return n;
    }
    case ExprKind::kUnary: {
      if (expr.op() != OpKind::kNot) return MakeFallback(expr, binder);
      auto n = std::make_unique<Node>();
      n->kind = NK::kNot;
      AQP_ASSIGN_OR_RETURN(n->a, CompileBool(*expr.child(0), binder));
      return n;
    }
    case ExprKind::kBinary:
      return CompileBinary(expr, binder);
    case ExprKind::kIn:
      return CompileIn(expr, binder);
    case ExprKind::kBetween: {
      const Expr& operand = *expr.child(0);
      const Expr& low = *expr.child(1);
      const Expr& high = *expr.child(2);
      if (operand.kind() != ExprKind::kColumnRef ||
          low.kind() != ExprKind::kLiteral ||
          high.kind() != ExprKind::kLiteral) {
        return MakeFallback(expr, binder);
      }
      const Column* col = binder.Find(operand.column_name());
      if (col == nullptr) {
        return Status::InvalidArgument("unknown column: " +
                                       operand.column_name());
      }
      if (low.literal().is_null() || high.literal().is_null()) {
        return MakeConst(kMaskNull);
      }
      if (IsNumeric(col->type()) && IsNumeric(low.literal().type()) &&
          IsNumeric(high.literal().type())) {
        auto n = std::make_unique<Node>();
        n->kind = NK::kAnd;
        n->a = MakeBetweenBound(col, OpKind::kGe, low.literal());
        n->b = MakeBetweenBound(col, OpKind::kLe, high.literal());
        return n;
      }
      if (col->type() == DataType::kString && low.literal().is_string() &&
          high.literal().is_string()) {
        auto n = std::make_unique<Node>();
        n->kind = NK::kStrRange;
        n->col = col;
        n->dict = col->EnsureDictionary();
        n->lo = n->dict->LowerBound(low.literal().str());
        n->hi = n->dict->UpperBound(high.literal().str());
        return n;
      }
      return MakeFallback(expr, binder);
    }
    case ExprKind::kLike: {
      const Expr& operand = *expr.child(0);
      if (operand.kind() != ExprKind::kColumnRef) {
        return MakeFallback(expr, binder);
      }
      const Column* col = binder.Find(operand.column_name());
      if (col == nullptr) {
        return Status::InvalidArgument("unknown column: " +
                                       operand.column_name());
      }
      if (col->type() != DataType::kString) return MakeFallback(expr, binder);
      auto n = std::make_unique<Node>();
      n->kind = NK::kStrBitmap;
      n->col = col;
      n->dict = col->EnsureDictionary();
      n->bits.resize(n->dict->num_values());
      // LIKE over the distinct values only — each pattern match runs once
      // per dictionary entry instead of once per row.
      for (uint32_t c = 0; c < n->bits.size(); ++c) {
        n->bits[c] = LikeMatch(n->dict->ValueOf(c), expr.like_pattern()) ? 1 : 0;
      }
      n->miss_null = false;
      return n;
    }
    default:
      return MakeFallback(expr, binder);
  }
}

// Evaluates one node over rows [begin, begin+n) into out.
Status EvalNode(const Node& node, size_t begin, size_t n, uint8_t* out) {
  switch (node.kind) {
    case NK::kConst:
      simd::FillMask(out, n, node.const_val);
      return Status::OK();
    case NK::kBoolCol: {
      const uint8_t* v = node.col->bool_data() + begin;
      const uint8_t* valid = node.col->validity() + begin;
      if (!node.col->has_nulls()) {
        for (size_t i = 0; i < n; ++i) out[i] = v[i] ? kMaskTrue : kMaskFalse;
      } else {
        for (size_t i = 0; i < n; ++i) {
          out[i] = valid[i] ? (v[i] ? kMaskTrue : kMaskFalse) : kMaskNull;
        }
      }
      return Status::OK();
    }
    case NK::kCmpF64:
      simd::CmpMaskF64(
          node.col->double_data() + begin,
          node.col->has_nulls() ? node.col->validity() + begin : nullptr, n,
          node.dval, node.cmp, out);
      return Status::OK();
    case NK::kCmpI64F64:
      simd::CmpMaskI64AsF64(
          node.col->int64_data() + begin,
          node.col->has_nulls() ? node.col->validity() + begin : nullptr, n,
          node.dval, node.cmp, out);
      return Status::OK();
    case NK::kCmpI64:
      simd::CmpMaskI64(
          node.col->int64_data() + begin,
          node.col->has_nulls() ? node.col->validity() + begin : nullptr, n,
          node.ival, node.cmp, out);
      return Status::OK();
    case NK::kCmpBool: {
      const uint8_t* v = node.col->bool_data() + begin;
      const uint8_t* valid = node.col->validity() + begin;
      // Precompute the verdict for both possible slot values.
      const int lit = static_cast<int>(node.ival);
      const uint8_t hit0 =
          HoldsI64(node.op, 0, lit) ? kMaskTrue : kMaskFalse;
      const uint8_t hit1 =
          HoldsI64(node.op, 1, lit) ? kMaskTrue : kMaskFalse;
      for (size_t i = 0; i < n; ++i) {
        out[i] = valid[i] ? (v[i] ? hit1 : hit0) : kMaskNull;
      }
      return Status::OK();
    }
    case NK::kStrRange: {
      const uint32_t* codes = node.dict->codes().data() + begin;
      const uint32_t lo = node.lo;
      const uint32_t hi = node.hi;
      const bool neg = node.neg;
      for (size_t i = 0; i < n; ++i) {
        uint32_t c = codes[i];
        if (c == StringDictionary::kNullCode) {
          out[i] = kMaskNull;
        } else {
          bool in = lo <= c && c < hi;
          out[i] = (in != neg) ? kMaskTrue : kMaskFalse;
        }
      }
      return Status::OK();
    }
    case NK::kStrBitmap: {
      const uint32_t* codes = node.dict->codes().data() + begin;
      const uint8_t* bits = node.bits.data();
      const uint8_t miss = node.miss_null ? kMaskNull : kMaskFalse;
      for (size_t i = 0; i < n; ++i) {
        uint32_t c = codes[i];
        if (c == StringDictionary::kNullCode) {
          out[i] = kMaskNull;
        } else {
          out[i] = bits[c] ? kMaskTrue : miss;
        }
      }
      return Status::OK();
    }
    case NK::kInNum: {
      const Column& col = *node.col;
      const uint8_t* valid = col.validity() + begin;
      const std::vector<double>& vals = node.in_vals;
      const uint8_t miss = node.in_has_null ? kMaskNull : kMaskFalse;
      const bool is_int = col.type() == DataType::kInt64;
      const int64_t* xi = is_int ? col.int64_data() + begin : nullptr;
      const double* xd = is_int ? nullptr : col.double_data() + begin;
      for (size_t i = 0; i < n; ++i) {
        if (!valid[i]) {
          out[i] = kMaskNull;
          continue;
        }
        double x = is_int ? static_cast<double>(xi[i]) : xd[i];
        bool found = false;
        if (!vals.empty()) {
          auto it = std::lower_bound(vals.begin(), vals.end(), x);
          // Three-way-comparator equality: unordered (NaN) counts as equal,
          // so probe the first non-less element (or the first element, for a
          // NaN that compares less than nothing).
          if (it == vals.end()) --it;
          found = !(x < *it) && !(x > *it);
        }
        out[i] = found ? kMaskTrue : miss;
      }
      return Status::OK();
    }
    case NK::kCmpColCol: {
      const Column& a = *node.col;
      const Column& b = *node.col2;
      const uint8_t* va = a.validity() + begin;
      const uint8_t* vb = b.validity() + begin;
      const OpKind op = node.op;
      if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
        const int64_t* xa = a.int64_data() + begin;
        const int64_t* xb = b.int64_data() + begin;
        for (size_t i = 0; i < n; ++i) {
          out[i] = (va[i] && vb[i])
                       ? (HoldsI64(op, xa[i], xb[i]) ? kMaskTrue : kMaskFalse)
                       : kMaskNull;
        }
        return Status::OK();
      }
      const bool a_int = a.type() == DataType::kInt64;
      const bool b_int = b.type() == DataType::kInt64;
      const int64_t* ai = a_int ? a.int64_data() + begin : nullptr;
      const double* ad = a_int ? nullptr : a.double_data() + begin;
      const int64_t* bi = b_int ? b.int64_data() + begin : nullptr;
      const double* bd = b_int ? nullptr : b.double_data() + begin;
      for (size_t i = 0; i < n; ++i) {
        if (!va[i] || !vb[i]) {
          out[i] = kMaskNull;
          continue;
        }
        double x = a_int ? static_cast<double>(ai[i]) : ad[i];
        double y = b_int ? static_cast<double>(bi[i]) : bd[i];
        out[i] = HoldsF64(op, x, y) ? kMaskTrue : kMaskFalse;
      }
      return Status::OK();
    }
    case NK::kAnd:
    case NK::kOr: {
      AQP_RETURN_IF_ERROR(EvalNode(*node.a, begin, n, out));
      std::vector<uint8_t> tmp(n);
      AQP_RETURN_IF_ERROR(EvalNode(*node.b, begin, n, tmp.data()));
      if (node.kind == NK::kAnd) {
        simd::And3(out, tmp.data(), n);
      } else {
        simd::Or3(out, tmp.data(), n);
      }
      return Status::OK();
    }
    case NK::kNot:
      AQP_RETURN_IF_ERROR(EvalNode(*node.a, begin, n, out));
      simd::Not3(out, n);
      return Status::OK();
    case NK::kFallback: {
      std::vector<Column> cols;
      cols.reserve(node.fcols.size());
      for (const Column* c : node.fcols) cols.push_back(c->Slice(begin, n));
      AQP_ASSIGN_OR_RETURN(Table span,
                           Table::Make(node.fschema, std::move(cols)));
      AQP_ASSIGN_OR_RETURN(Column mask, Eval(*node.fexpr, span));
      if (mask.type() != DataType::kBool) {
        return Status::InvalidArgument("predicate is not boolean: " +
                                       node.fexpr->ToString());
      }
      for (size_t i = 0; i < n; ++i) {
        out[i] = mask.IsNull(i) ? kMaskNull
                                : (mask.BoolAt(i) ? kMaskTrue : kMaskFalse);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable batch node kind");
}

uint64_t NodeAuxBytes(const Node& node, std::vector<const void*>* seen_dicts) {
  uint64_t bytes = node.bits.capacity() +
                   node.in_vals.capacity() * sizeof(double);
  if (node.dict != nullptr) {
    const void* p = node.dict.get();
    if (std::find(seen_dicts->begin(), seen_dicts->end(), p) ==
        seen_dicts->end()) {
      seen_dicts->push_back(p);
      bytes += node.dict->ApproxBytes();
    }
  }
  if (node.a != nullptr) bytes += NodeAuxBytes(*node.a, seen_dicts);
  if (node.b != nullptr) bytes += NodeAuxBytes(*node.b, seen_dicts);
  return bytes;
}

// Deepest set of concurrently live mask buffers: AND/OR evaluate the left
// child into the output, then the right child into one temp.
uint64_t NodeMaskDepth(const Node& node) {
  switch (node.kind) {
    case NK::kAnd:
    case NK::kOr:
      return std::max(NodeMaskDepth(*node.a), 1 + NodeMaskDepth(*node.b));
    case NK::kNot:
      return NodeMaskDepth(*node.a);
    default:
      return 1;
  }
}

bool NodeHasFallback(const Node& node) {
  if (node.kind == NK::kFallback) return true;
  if (node.a != nullptr && NodeHasFallback(*node.a)) return true;
  if (node.b != nullptr && NodeHasFallback(*node.b)) return true;
  return false;
}

}  // namespace

BatchPredicate::BatchPredicate() = default;
BatchPredicate::BatchPredicate(BatchPredicate&&) noexcept = default;
BatchPredicate& BatchPredicate::operator=(BatchPredicate&&) noexcept =
    default;
BatchPredicate::~BatchPredicate() = default;

Result<BatchPredicate> BatchPredicate::Compile(
    const Expr& expr, const std::vector<std::string>& names,
    const std::vector<const Column*>& cols) {
  AQP_CHECK(names.size() == cols.size());
  // Same up-front type check (and error) as the scalar morsel evaluator.
  Schema schema;
  for (size_t i = 0; i < names.size(); ++i) {
    schema.AddField({names[i], cols[i]->type()});
  }
  AQP_ASSIGN_OR_RETURN(DataType pred_type, expr.TypeCheck(schema));
  if (pred_type != DataType::kBool) {
    return Status::InvalidArgument("predicate is not boolean: " +
                                   expr.ToString());
  }
  Binder binder{&names, &cols};
  BatchPredicate pred;
  AQP_ASSIGN_OR_RETURN(pred.root_, CompileBool(expr, binder));
  std::vector<const void*> seen;
  pred.aux_bytes_ = NodeAuxBytes(*pred.root_, &seen);
  return pred;
}

Result<BatchPredicate> BatchPredicate::Compile(const Expr& expr,
                                               const Table& table) {
  std::vector<std::string> names;
  std::vector<const Column*> cols;
  names.reserve(table.num_columns());
  cols.reserve(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    names.push_back(table.schema().field(i).name);
    cols.push_back(&table.column(i));
  }
  return Compile(expr, names, cols);
}

Status BatchPredicate::EvalSpan(size_t begin, size_t n, uint8_t* out) const {
  return EvalNode(*root_, begin, n, out);
}

uint64_t BatchPredicate::AuxBytes() const { return aux_bytes_; }

uint64_t BatchPredicate::ScratchBytesPerRow() const {
  return NodeMaskDepth(*root_);
}

bool BatchPredicate::HasFallback() const { return NodeHasFallback(*root_); }

Result<std::vector<uint32_t>> EvalPredicateBatch(
    const Expr& expr, const Table& table, size_t morsel_rows,
    size_t num_threads, ParallelRunStats* run_stats,
    const CancellationToken* cancel, MemoryTracker* memory) {
  const size_t n = table.num_rows();
  std::vector<std::string> refs = expr.ReferencedColumns();
  // Constant predicates and empty inputs take the row evaluator: there is
  // nothing to vectorize.
  if (refs.empty() || n == 0) return EvalPredicate(expr, table);
  if (morsel_rows == 0) morsel_rows = n;
  AQP_ASSIGN_OR_RETURN(BatchPredicate pred,
                       BatchPredicate::Compile(expr, table));
  // Batch buffers are real query memory: dictionary pages and lookup tables
  // for the predicate's lifetime, plus one mask span per in-flight morsel.
  const uint64_t scratch =
      pred.ScratchBytesPerRow() *
      std::min<uint64_t>(n, morsel_rows * std::max<size_t>(num_threads, 1));
  ScopedMemoryCharge charge;
  AQP_ASSIGN_OR_RETURN(
      charge, ScopedMemoryCharge::Make(memory, pred.AuxBytes() + scratch,
                                       "predicate batch buffers"));
  const size_t num_morsels = (n + morsel_rows - 1) / morsel_rows;
  if (num_threads <= 1 || num_morsels <= 1) {
    std::vector<uint8_t> mask(std::min<size_t>(n, morsel_rows));
    std::vector<uint32_t> selected;
    for (size_t begin = 0; begin < n; begin += morsel_rows) {
      AQP_RETURN_IF_ERROR(CheckCancelled(cancel));
      const size_t len = std::min(morsel_rows, n - begin);
      AQP_RETURN_IF_ERROR(pred.EvalSpan(begin, len, mask.data()));
      simd::SelectTrue(mask.data(), len, static_cast<uint32_t>(begin),
                       &selected);
    }
    return selected;
  }
  std::vector<std::vector<uint32_t>> local(num_morsels);
  std::vector<Status> errors(num_morsels, Status::OK());
  ParallelRunStats rs = ThreadPool::Shared().ParallelFor(
      n, morsel_rows, num_threads, ThreadPool::ParallelForOptions{cancel},
      [&](size_t, size_t m, size_t begin, size_t end) {
        std::vector<uint8_t> mask(end - begin);
        Status s = pred.EvalSpan(begin, end - begin, mask.data());
        if (!s.ok()) {
          errors[m] = std::move(s);
          return;
        }
        simd::SelectTrue(mask.data(), end - begin,
                         static_cast<uint32_t>(begin), &local[m]);
      });
  AQP_RETURN_IF_ERROR(CheckCancelled(cancel));
  for (const Status& s : errors) {
    AQP_RETURN_IF_ERROR(s);
  }
  size_t total = 0;
  for (const std::vector<uint32_t>& v : local) total += v.size();
  std::vector<uint32_t> selected;
  selected.reserve(total);
  for (const std::vector<uint32_t>& v : local) {
    selected.insert(selected.end(), v.begin(), v.end());
  }
  if (run_stats != nullptr) run_stats->MergeFrom(rs);
  return selected;
}

}  // namespace aqp
