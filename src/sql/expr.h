// Copyright (c) 2026 The db2graph-repro Authors.
//
// Expression AST for the SQL subset: literals, column references, '?'
// parameters, comparisons, boolean connectives, arithmetic, IN lists,
// IS [NOT] NULL, LIKE, and (at the select-list level) aggregate calls.

#ifndef DB2GRAPH_SQL_EXPR_H_
#define DB2GRAPH_SQL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace db2graph::sql {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kParam,    // '?' placeholder, 0-based ordinal
  kStar,     // '*' or 'alias.*' (select list / COUNT(*) only)
  kUnary,    // NOT, unary -
  kBinary,   // AND OR = <> < <= > >= + - * / LIKE
  kIn,       // child[0] IN (child[1..]); negated flag for NOT IN
  kIsNull,   // child[0] IS NULL; negated flag for IS NOT NULL
  kFuncCall, // COUNT/SUM/AVG/MIN/MAX/ABS/LOWER/UPPER...
};

/// One node of an expression tree.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                         // kLiteral
  std::string table_alias;               // kColumnRef / kStar ("" = any)
  std::string column;                    // kColumnRef
  int param_index = -1;                  // kParam
  std::string op;                        // kUnary / kBinary / kFuncCall name
  bool negated = false;                  // kIn / kIsNull
  std::vector<std::unique_ptr<Expr>> children;

  /// Filled during binding: offset of the referenced column in the
  /// concatenated row layout of the execution scope. -1 = unbound.
  int bound_index = -1;

  std::unique_ptr<Expr> Clone() const;

  /// Renders roughly back to SQL (diagnostics and SQL-dialect tests).
  std::string ToString() const;
};

std::unique_ptr<Expr> MakeLiteral(Value v);
std::unique_ptr<Expr> MakeColumnRef(std::string table_alias,
                                    std::string column);
std::unique_ptr<Expr> MakeBinary(std::string op, std::unique_ptr<Expr> lhs,
                                 std::unique_ptr<Expr> rhs);

/// Name resolution scope: a sequence of (alias, column names) whose columns
/// are concatenated into one flat row layout.
class Scope {
 public:
  void AddTable(const std::string& alias,
                const std::vector<std::string>& columns);

  /// Resolves alias.column (alias may be empty) to a flat offset.
  Result<size_t> Resolve(const std::string& table_alias,
                         const std::string& column) const;

  /// Flat offsets covered by `alias.*` (or all when alias empty).
  std::vector<size_t> StarOffsets(const std::string& table_alias) const;

  size_t width() const { return width_; }
  /// Output column name at a flat offset.
  const std::string& NameAt(size_t offset) const { return names_[offset]; }

 private:
  struct Entry {
    std::string alias;
    size_t offset;
    size_t count;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> names_;        // unqualified, per flat offset
  std::vector<std::string> lower_names_;  // lowercase cache
  size_t width_ = 0;
};

/// Binds every column reference in `expr` against `scope`; fails on unknown
/// columns or ambiguity.
Status BindExpr(Expr* expr, const Scope& scope);

/// Where a bound column reference reads its value: `offset` is the
/// reference's bound_index in the scope's flat row layout. A flat row is
/// one source; the executor's join stages read cells in place from the
/// relations a tuple of slot ids points into.
class ColumnReader {
 public:
  virtual Value Read(size_t offset) const = 0;

 protected:
  ~ColumnReader() = default;
};

/// Reads a flat row.
class RowReader final : public ColumnReader {
 public:
  explicit RowReader(const Row& row) : row_(row) {}
  Value Read(size_t offset) const override { return row_[offset]; }

 private:
  const Row& row_;
};

/// Evaluates a bound expression, reading its columns through `columns`.
/// `params` supplies '?' values (may be null when the expression has no
/// parameters). SQL three-valued logic is approximated: comparisons with
/// NULL yield NULL (represented as a NULL Value), and filters treat NULL
/// as false.
Value EvalExpr(const Expr& expr, const ColumnReader& columns,
               const std::vector<Value>* params);

/// EvalExpr over a flat row.
inline Value EvalExpr(const Expr& expr, const Row& row,
                      const std::vector<Value>* params) {
  return EvalExpr(expr, RowReader(row), params);
}

/// True if the expression contains an aggregate function call.
bool ContainsAggregate(const Expr& expr);

/// True for COUNT/SUM/AVG/MIN/MAX (case-insensitive).
bool IsAggregateName(const std::string& name);

/// SQL LIKE with % and _ wildcards.
bool SqlLike(const std::string& text, const std::string& pattern);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_EXPR_H_
