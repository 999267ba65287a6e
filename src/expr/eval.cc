#include "expr/eval.h"

#include <cmath>

#include "common/check.h"

namespace aqp {
namespace {

// Three-valued boolean: 0 = false, 1 = true, 2 = null.
enum : uint8_t { kFalse = 0, kTrue = 1, kNull = 2 };

uint8_t SlotBool3(const Column& c, size_t i) {
  if (c.IsNull(i)) return kNull;
  return c.BoolAt(i) ? kTrue : kFalse;
}

void AppendBool3(Column* c, uint8_t b3) {
  if (b3 == kNull) {
    c->AppendNull();
  } else {
    c->AppendBool(b3 == kTrue);
  }
}

// Compares non-null slots with numeric promotion; -1/0/+1.
int CompareSlots(const Column& a, size_t i, const Column& b, size_t j) {
  if (IsNumeric(a.type()) && IsNumeric(b.type())) {
    if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
      int64_t x = a.Int64At(i);
      int64_t y = b.Int64At(j);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.NumericAt(i);
    double y = b.NumericAt(j);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  AQP_CHECK(a.type() == b.type()) << "incomparable slot types";
  switch (a.type()) {
    case DataType::kString:
      return a.StringAt(i).compare(b.StringAt(j)) < 0
                 ? -1
                 : (a.StringAt(i) == b.StringAt(j) ? 0 : 1);
    case DataType::kBool: {
      int x = a.BoolAt(i) ? 1 : 0;
      int y = b.BoolAt(j) ? 1 : 0;
      return x - y;
    }
    default:
      AQP_CHECK(false) << "unreachable";
      return 0;
  }
}

// Compares a non-null column slot against a non-null Value.
int CompareSlotValue(const Column& c, size_t i, const Value& v) {
  if (IsNumeric(c.type()) && IsNumeric(v.type())) {
    double x = c.NumericAt(i);
    double y = v.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  AQP_CHECK(c.type() == v.type()) << "incomparable value types";
  switch (c.type()) {
    case DataType::kString:
      return c.StringAt(i).compare(v.str()) < 0
                 ? -1
                 : (c.StringAt(i) == v.str() ? 0 : 1);
    case DataType::kBool:
      return (c.BoolAt(i) ? 1 : 0) - (v.boolean() ? 1 : 0);
    default:
      AQP_CHECK(false) << "unreachable";
      return 0;
  }
}

bool ComparisonHolds(OpKind op, int cmp) {
  switch (op) {
    case OpKind::kEq:
      return cmp == 0;
    case OpKind::kNe:
      return cmp != 0;
    case OpKind::kLt:
      return cmp < 0;
    case OpKind::kLe:
      return cmp <= 0;
    case OpKind::kGt:
      return cmp > 0;
    case OpKind::kGe:
      return cmp >= 0;
    default:
      AQP_CHECK(false) << "not a comparison";
      return false;
  }
}

Result<Column> EvalArithmetic(OpKind op, const Column& lhs, const Column& rhs,
                              DataType out_type) {
  size_t n = lhs.size();
  Column out(out_type);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (lhs.IsNull(i) || rhs.IsNull(i)) {
      out.AppendNull();
      continue;
    }
    if (out_type == DataType::kInt64) {
      int64_t a = lhs.Int64At(i);
      int64_t b = rhs.Int64At(i);
      int64_t r = 0;
      switch (op) {
        case OpKind::kAdd:
          r = a + b;
          break;
        case OpKind::kSub:
          r = a - b;
          break;
        case OpKind::kMul:
          r = a * b;
          break;
        case OpKind::kMod:
          if (b == 0) {
            return Status::InvalidArgument("modulo by zero");
          }
          r = a % b;
          break;
        default:
          return Status::Internal("bad int arithmetic op");
      }
      out.AppendInt64(r);
    } else {
      double a = lhs.NumericAt(i);
      double b = rhs.NumericAt(i);
      double r = 0.0;
      switch (op) {
        case OpKind::kAdd:
          r = a + b;
          break;
        case OpKind::kSub:
          r = a - b;
          break;
        case OpKind::kMul:
          r = a * b;
          break;
        case OpKind::kDiv:
          if (b == 0.0) {
            out.AppendNull();  // SQL-style: division by zero yields NULL here.
            continue;
          }
          r = a / b;
          break;
        default:
          return Status::Internal("bad double arithmetic op");
      }
      out.AppendDouble(r);
    }
  }
  return out;
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matching with backtracking on the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<EvaluatedColumn> EvalBorrowed(const Expr& expr, const Table& table) {
  EvaluatedColumn out;
  if (expr.kind() == ExprKind::kColumnRef) {
    AQP_ASSIGN_OR_RETURN(size_t idx,
                         table.schema().FieldIndex(expr.column_name()));
    out.column = &table.column(idx);
    return out;
  }
  AQP_ASSIGN_OR_RETURN(Column c, Eval(expr, table));
  out.owned = std::make_unique<Column>(std::move(c));
  out.column = out.owned.get();
  return out;
}

Result<Column> Eval(const Expr& expr, const Table& table) {
  const size_t n = table.num_rows();
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      AQP_ASSIGN_OR_RETURN(size_t idx,
                           table.schema().FieldIndex(expr.column_name()));
      return table.column(idx);
    }
    case ExprKind::kLiteral: {
      const Value& v = expr.literal();
      DataType t = v.is_null() ? DataType::kDouble : v.type();
      Column out(t);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        Status s = out.AppendValue(v);
        AQP_CHECK(s.ok());
      }
      return out;
    }
    case ExprKind::kUnary: {
      AQP_ASSIGN_OR_RETURN(Column operand, Eval(*expr.child(0), table));
      if (expr.op() == OpKind::kNeg) {
        if (!IsNumeric(operand.type())) {
          return Status::InvalidArgument("unary - on non-numeric operand");
        }
        Column out(operand.type());
        out.Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (operand.IsNull(i)) {
            out.AppendNull();
          } else if (operand.type() == DataType::kInt64) {
            out.AppendInt64(-operand.Int64At(i));
          } else {
            out.AppendDouble(-operand.DoubleAt(i));
          }
        }
        return out;
      }
      // NOT.
      if (operand.type() != DataType::kBool) {
        return Status::InvalidArgument("NOT on non-boolean operand");
      }
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        uint8_t b = SlotBool3(operand, i);
        AppendBool3(&out, b == kNull ? kNull : (b == kTrue ? kFalse : kTrue));
      }
      return out;
    }
    case ExprKind::kBinary: {
      OpKind op = expr.op();
      AQP_ASSIGN_OR_RETURN(Column lhs, Eval(*expr.child(0), table));
      AQP_ASSIGN_OR_RETURN(Column rhs, Eval(*expr.child(1), table));
      if (op == OpKind::kAnd || op == OpKind::kOr) {
        if (lhs.type() != DataType::kBool || rhs.type() != DataType::kBool) {
          return Status::InvalidArgument("AND/OR on non-boolean operands");
        }
        Column out(DataType::kBool);
        out.Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          uint8_t a = SlotBool3(lhs, i);
          uint8_t b = SlotBool3(rhs, i);
          uint8_t r;
          if (op == OpKind::kAnd) {
            r = (a == kFalse || b == kFalse)
                    ? kFalse
                    : ((a == kNull || b == kNull) ? kNull : kTrue);
          } else {
            r = (a == kTrue || b == kTrue)
                    ? kTrue
                    : ((a == kNull || b == kNull) ? kNull : kFalse);
          }
          AppendBool3(&out, r);
        }
        return out;
      }
      if (op == OpKind::kEq || op == OpKind::kNe || op == OpKind::kLt ||
          op == OpKind::kLe || op == OpKind::kGt || op == OpKind::kGe) {
        bool both_numeric = IsNumeric(lhs.type()) && IsNumeric(rhs.type());
        if (!both_numeric && lhs.type() != rhs.type()) {
          return Status::InvalidArgument("comparison type mismatch");
        }
        Column out(DataType::kBool);
        out.Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (lhs.IsNull(i) || rhs.IsNull(i)) {
            out.AppendNull();
            continue;
          }
          out.AppendBool(ComparisonHolds(op, CompareSlots(lhs, i, rhs, i)));
        }
        return out;
      }
      // Arithmetic.
      if (!IsNumeric(lhs.type()) || !IsNumeric(rhs.type())) {
        return Status::InvalidArgument("arithmetic on non-numeric operands");
      }
      DataType out_type;
      if (op == OpKind::kDiv) {
        out_type = DataType::kDouble;
      } else if (op == OpKind::kMod) {
        if (lhs.type() != DataType::kInt64 || rhs.type() != DataType::kInt64) {
          return Status::InvalidArgument("% requires integer operands");
        }
        out_type = DataType::kInt64;
      } else {
        out_type = (lhs.type() == DataType::kDouble ||
                    rhs.type() == DataType::kDouble)
                       ? DataType::kDouble
                       : DataType::kInt64;
      }
      return EvalArithmetic(op, lhs, rhs, out_type);
    }
    case ExprKind::kIn: {
      AQP_ASSIGN_OR_RETURN(Column operand, Eval(*expr.child(0), table));
      bool list_has_null = false;
      for (const Value& v : expr.in_list()) {
        if (v.is_null()) list_has_null = true;
      }
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (operand.IsNull(i)) {
          out.AppendNull();
          continue;
        }
        bool found = false;
        for (const Value& v : expr.in_list()) {
          if (!v.is_null() && CompareSlotValue(operand, i, v) == 0) {
            found = true;
            break;
          }
        }
        if (found) {
          out.AppendBool(true);
        } else if (list_has_null) {
          out.AppendNull();  // x IN (..., NULL) is NULL when unmatched.
        } else {
          out.AppendBool(false);
        }
      }
      return out;
    }
    case ExprKind::kBetween: {
      AQP_ASSIGN_OR_RETURN(Column operand, Eval(*expr.child(0), table));
      AQP_ASSIGN_OR_RETURN(Column low, Eval(*expr.child(1), table));
      AQP_ASSIGN_OR_RETURN(Column high, Eval(*expr.child(2), table));
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (operand.IsNull(i) || low.IsNull(i) || high.IsNull(i)) {
          out.AppendNull();
          continue;
        }
        bool ge_low = CompareSlots(operand, i, low, i) >= 0;
        bool le_high = CompareSlots(operand, i, high, i) <= 0;
        out.AppendBool(ge_low && le_high);
      }
      return out;
    }
    case ExprKind::kLike: {
      AQP_ASSIGN_OR_RETURN(Column operand, Eval(*expr.child(0), table));
      if (operand.type() != DataType::kString) {
        return Status::InvalidArgument("LIKE on non-string operand");
      }
      Column out(DataType::kBool);
      out.Reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (operand.IsNull(i)) {
          out.AppendNull();
          continue;
        }
        out.AppendBool(LikeMatch(operand.StringAt(i), expr.like_pattern()));
      }
      return out;
    }
    case ExprKind::kFunction: {
      // Type-check against the table's schema to resolve the result type
      // (also validates arity and argument types).
      AQP_ASSIGN_OR_RETURN(DataType out_type, expr.TypeCheck(table.schema()));
      std::vector<Column> args;
      for (size_t c = 0; c < expr.num_children(); ++c) {
        AQP_ASSIGN_OR_RETURN(Column col, Eval(*expr.child(c), table));
        args.push_back(std::move(col));
      }
      const std::string& fn = expr.function_name();
      Column out(out_type);
      out.Reserve(n);
      if (fn == "COALESCE") {
        for (size_t i = 0; i < n; ++i) {
          bool filled = false;
          for (const Column& arg : args) {
            if (arg.IsNull(i)) continue;
            if (out_type == DataType::kDouble && IsNumeric(arg.type())) {
              out.AppendDouble(arg.NumericAt(i));
            } else {
              AQP_RETURN_IF_ERROR(out.AppendValue(arg.GetValue(i)));
            }
            filled = true;
            break;
          }
          if (!filled) out.AppendNull();
        }
        return out;
      }
      for (size_t i = 0; i < n; ++i) {
        bool any_null = false;
        for (const Column& arg : args) any_null = any_null || arg.IsNull(i);
        if (any_null) {
          out.AppendNull();
          continue;
        }
        if (fn == "ABS") {
          if (out_type == DataType::kInt64) {
            int64_t v = args[0].Int64At(i);
            out.AppendInt64(v < 0 ? -v : v);
          } else {
            out.AppendDouble(std::fabs(args[0].DoubleAt(i)));
          }
          continue;
        }
        double x = args[0].NumericAt(i);
        if (fn == "ROUND") {
          out.AppendInt64(std::llround(x));
        } else if (fn == "FLOOR") {
          out.AppendInt64(static_cast<int64_t>(std::floor(x)));
        } else if (fn == "CEIL") {
          out.AppendInt64(static_cast<int64_t>(std::ceil(x)));
        } else if (fn == "SQRT") {
          if (x < 0.0) {
            out.AppendNull();
          } else {
            out.AppendDouble(std::sqrt(x));
          }
        } else if (fn == "LN") {
          if (x <= 0.0) {
            out.AppendNull();
          } else {
            out.AppendDouble(std::log(x));
          }
        } else if (fn == "EXP") {
          out.AppendDouble(std::exp(x));
        } else if (fn == "POWER") {
          out.AppendDouble(std::pow(x, args[1].NumericAt(i)));
        } else {
          return Status::InvalidArgument("unknown function: " + fn);
        }
      }
      return out;
    }
  }
  return Status::Internal("unreachable expr kind");
}

Result<std::vector<uint32_t>> EvalPredicate(const Expr& expr,
                                            const Table& table) {
  AQP_ASSIGN_OR_RETURN(Column mask, Eval(expr, table));
  if (mask.type() != DataType::kBool) {
    return Status::InvalidArgument("predicate is not boolean: " +
                                   expr.ToString());
  }
  std::vector<uint32_t> selected;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (!mask.IsNull(i) && mask.BoolAt(i)) {
      selected.push_back(static_cast<uint32_t>(i));
    }
  }
  return selected;
}

}  // namespace aqp
