#include "sql/expr.h"

#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace db2graph::sql {

std::unique_ptr<Expr> Expr::Clone() const {
  auto copy = std::make_unique<Expr>();
  copy->kind = kind;
  copy->literal = literal;
  copy->table_alias = table_alias;
  copy->column = column;
  copy->param_index = param_index;
  copy->op = op;
  copy->negated = negated;
  copy->bound_index = bound_index;
  copy->children.reserve(children.size());
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToSqlLiteral();
    case ExprKind::kColumnRef:
      return table_alias.empty() ? column : table_alias + "." + column;
    case ExprKind::kParam:
      return "?";
    case ExprKind::kStar:
      return table_alias.empty() ? "*" : table_alias + ".*";
    case ExprKind::kUnary: {
      std::string s = op;
      s += " (";
      s += children[0]->ToString();
      s += ")";
      return s;
    }
    case ExprKind::kBinary:
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    case ExprKind::kIn: {
      std::string s = children[0]->ToString();
      s += negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) s += ", ";
        s += children[i]->ToString();
      }
      return s + ")";
    }
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kFuncCall: {
      std::string s = op + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) s += ", ";
        s += children[i]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

std::unique_ptr<Expr> MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> MakeColumnRef(std::string table_alias,
                                    std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table_alias = std::move(table_alias);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> MakeBinary(std::string op, std::unique_ptr<Expr> lhs,
                                 std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = std::move(op);
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

void Scope::AddTable(const std::string& alias,
                     const std::vector<std::string>& columns) {
  entries_.push_back({alias, width_, columns.size()});
  for (const std::string& c : columns) {
    names_.push_back(c);
    lower_names_.push_back(ToLower(c));
  }
  width_ += columns.size();
}

Result<size_t> Scope::Resolve(const std::string& table_alias,
                              const std::string& column) const {
  std::string want = ToLower(column);
  std::optional<size_t> found;
  for (const Entry& e : entries_) {
    if (!table_alias.empty() && !EqualsIgnoreCase(e.alias, table_alias)) {
      continue;
    }
    for (size_t i = 0; i < e.count; ++i) {
      if (lower_names_[e.offset + i] == want) {
        if (found.has_value()) {
          return Status::InvalidArgument("ambiguous column reference: " +
                                         column);
        }
        found = e.offset + i;
      }
    }
  }
  if (!found) {
    return Status::NotFound(
        "unknown column: " +
        (table_alias.empty() ? column : table_alias + "." + column));
  }
  return *found;
}

std::vector<size_t> Scope::StarOffsets(const std::string& table_alias) const {
  std::vector<size_t> out;
  for (const Entry& e : entries_) {
    if (!table_alias.empty() && !EqualsIgnoreCase(e.alias, table_alias)) {
      continue;
    }
    for (size_t i = 0; i < e.count; ++i) out.push_back(e.offset + i);
  }
  return out;
}

Status BindExpr(Expr* expr, const Scope& scope) {
  if (expr->kind == ExprKind::kColumnRef) {
    Result<size_t> offset = scope.Resolve(expr->table_alias, expr->column);
    if (!offset.ok()) return offset.status();
    expr->bound_index = static_cast<int>(*offset);
    return Status::OK();
  }
  for (auto& child : expr->children) {
    DB2G_RETURN_NOT_OK(BindExpr(child.get(), scope));
  }
  return Status::OK();
}

bool SqlLike(const std::string& text, const std::string& pattern) {
  // Iterative matcher with backtracking on the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

Value EvalBinary(const Expr& expr, const ColumnReader& row,
                 const std::vector<Value>* params) {
  const std::string& op = expr.op;
  if (op == "AND") {
    Value lhs = EvalExpr(*expr.children[0], row, params);
    if (!lhs.is_null() && !lhs.Truthy()) return Value(false);
    Value rhs = EvalExpr(*expr.children[1], row, params);
    if (!rhs.is_null() && !rhs.Truthy()) return Value(false);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value(true);
  }
  if (op == "OR") {
    Value lhs = EvalExpr(*expr.children[0], row, params);
    if (!lhs.is_null() && lhs.Truthy()) return Value(true);
    Value rhs = EvalExpr(*expr.children[1], row, params);
    if (!rhs.is_null() && rhs.Truthy()) return Value(true);
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value(false);
  }
  Value lhs = EvalExpr(*expr.children[0], row, params);
  Value rhs = EvalExpr(*expr.children[1], row, params);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == "=") return Value(lhs == rhs);
  if (op == "<>" || op == "!=") return Value(lhs != rhs);
  if (op == "<") return Value(lhs < rhs);
  if (op == "<=") return Value(lhs <= rhs);
  if (op == ">") return Value(lhs > rhs);
  if (op == ">=") return Value(lhs >= rhs);
  if (op == "LIKE") {
    if (!lhs.is_string() || !rhs.is_string()) return Value(false);
    return Value(SqlLike(lhs.as_string(), rhs.as_string()));
  }
  if (op == "||") return Value(lhs.ToString() + rhs.ToString());
  // Arithmetic.
  if (lhs.is_numeric() && rhs.is_numeric()) {
    if (lhs.is_int() && rhs.is_int() && op != "/") {
      int64_t a = lhs.as_int();
      int64_t b = rhs.as_int();
      if (op == "+") return Value(a + b);
      if (op == "-") return Value(a - b);
      if (op == "*") return Value(a * b);
      if (op == "%") return b == 0 ? Value::Null() : Value(a % b);
    }
    double a = lhs.NumericValue();
    double b = rhs.NumericValue();
    if (op == "+") return Value(a + b);
    if (op == "-") return Value(a - b);
    if (op == "*") return Value(a * b);
    if (op == "/") return b == 0 ? Value::Null() : Value(a / b);
    if (op == "%") return b == 0 ? Value::Null() : Value(std::fmod(a, b));
  }
  return Value::Null();
}

Value EvalScalarFunc(const Expr& expr, const ColumnReader& row,
                     const std::vector<Value>* params) {
  std::string name = ToUpper(expr.op);
  if (name == "ABS") {
    Value v = EvalExpr(*expr.children[0], row, params);
    if (v.is_int()) return Value(std::abs(v.as_int()));
    if (v.is_double()) return Value(std::abs(v.as_double()));
    return Value::Null();
  }
  if (name == "LOWER" || name == "UPPER") {
    Value v = EvalExpr(*expr.children[0], row, params);
    if (!v.is_string()) return Value::Null();
    return Value(name == "LOWER" ? ToLower(v.as_string())
                                 : ToUpper(v.as_string()));
  }
  if (name == "LENGTH") {
    Value v = EvalExpr(*expr.children[0], row, params);
    if (!v.is_string()) return Value::Null();
    return Value(static_cast<int64_t>(v.as_string().size()));
  }
  if (name == "COALESCE") {
    for (const auto& child : expr.children) {
      Value v = EvalExpr(*child, row, params);
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (name == "CAST_VARCHAR") {
    Value v = EvalExpr(*expr.children[0], row, params);
    if (v.is_null()) return v;
    return Value(v.ToString());
  }
  return Value::Null();
}

}  // namespace

Value EvalExpr(const Expr& expr, const ColumnReader& row,
               const std::vector<Value>* params) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      assert(expr.bound_index >= 0);
      return row.Read(static_cast<size_t>(expr.bound_index));
    case ExprKind::kParam:
      assert(params != nullptr &&
             expr.param_index >= 0 &&
             static_cast<size_t>(expr.param_index) < params->size());
      return (*params)[expr.param_index];
    case ExprKind::kStar:
      return Value::Null();  // handled by the executor, never evaluated
    case ExprKind::kUnary: {
      Value v = EvalExpr(*expr.children[0], row, params);
      if (expr.op == "NOT") {
        if (v.is_null()) return Value::Null();
        return Value(!v.Truthy());
      }
      if (expr.op == "-") {
        if (v.is_int()) return Value(-v.as_int());
        if (v.is_double()) return Value(-v.as_double());
        return Value::Null();
      }
      return Value::Null();
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, row, params);
    case ExprKind::kIn: {
      Value needle = EvalExpr(*expr.children[0], row, params);
      if (needle.is_null()) return Value::Null();
      bool found = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        Value candidate = EvalExpr(*expr.children[i], row, params);
        if (!candidate.is_null() && candidate == needle) {
          found = true;
          break;
        }
      }
      return Value(expr.negated ? !found : found);
    }
    case ExprKind::kIsNull: {
      Value v = EvalExpr(*expr.children[0], row, params);
      return Value(expr.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kFuncCall:
      // Aggregates are computed by the executor; reaching here means a
      // scalar function.
      return EvalScalarFunc(expr, row, params);
  }
  return Value::Null();
}

bool IsAggregateName(const std::string& name) {
  std::string up = ToUpper(name);
  return up == "COUNT" || up == "SUM" || up == "AVG" || up == "MIN" ||
         up == "MAX";
}

bool ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFuncCall && IsAggregateName(expr.op)) {
    return true;
  }
  for (const auto& child : expr.children) {
    if (ContainsAggregate(*child)) return true;
  }
  return false;
}

}  // namespace db2graph::sql
