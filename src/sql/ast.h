// Copyright (c) 2026 The db2graph-repro Authors.
//
// Statement AST for the SQL subset. Besides ordinary DML/DDL, FROM clauses
// may contain TABLE(func(...)) AS alias (cols...) — the polymorphic table
// function mechanism the paper uses for graphQuery (Section 4).

#ifndef DB2GRAPH_SQL_AST_H_
#define DB2GRAPH_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/expr.h"
#include "sql/schema.h"

namespace db2graph::sql {

enum class StatementKind {
  kGrant,
  kRevoke,
  kCreateTable,
  kCreateIndex,
  kCreateView,
  kDropTable,
  kInsert,
  kUpdate,
  kDelete,
  kSelect,
  kBegin,
  kCommit,
  kRollback,
};

struct SelectStmt;

/// A reference in a FROM clause: a base table / view, a parenthesized
/// subquery, or a TABLE(function(...)) invocation.
struct TableRef {
  enum class Kind { kTable, kSubquery, kTableFunction };
  Kind kind = Kind::kTable;
  std::string table;  // kTable: table or view name
  std::string alias;  // exposed alias (defaults to table name)
  std::shared_ptr<SelectStmt> subquery;            // kSubquery
  std::string function_name;                       // kTableFunction
  std::vector<std::unique_ptr<Expr>> function_args;
  std::vector<ColumnDef> function_columns;  // declared output shape
};

struct JoinClause {
  enum class Kind { kInner, kLeft };
  Kind kind = Kind::kInner;
  TableRef table;
  std::unique_ptr<Expr> on;
};

struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;
};

struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

/// A parsed SELECT. The AST is never mutated after parsing: execution
/// binds clones of its expressions into a SelectSection (executor.h),
/// which a prepared statement keeps and rebuilds after DDL.
struct SelectStmt {
  /// EXPLAIN SELECT ...: compile (and for analyze, run) the statement but
  /// return the operator tree as a one-column "plan" result instead of
  /// the query's rows.
  bool explain = false;
  /// EXPLAIN ANALYZE: execute fully with per-operator instrumentation so
  /// the rendered plan carries actual blocks/rows/micros.
  bool analyze = false;
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;  // comma-list = cross join
  std::vector<JoinClause> joins;
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  // -1 = unlimited
};

struct CreateTableStmt {
  TableSchema schema;
  bool if_not_exists = false;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
  bool ordered = false;  // CREATE ORDERED INDEX: range-scannable
};

struct CreateViewStmt {
  std::string name;
  std::shared_ptr<SelectStmt> select;
  std::string select_text;  // original SELECT text, for introspection
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty = declaration order
  std::vector<std::vector<std::unique_ptr<Expr>>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, std::unique_ptr<Expr>>> assignments;
  std::unique_ptr<Expr> where;
};

struct DeleteStmt {
  std::string table;
  std::unique_ptr<Expr> where;
};

/// GRANT/REVOKE SELECT|ALL ON table TO/FROM user.
struct GrantStmt {
  bool is_revoke = false;
  bool select_only = true;  // SELECT vs ALL (select + modify)
  std::string table;
  std::string user;
};

/// A parsed statement (tagged union; exactly the member matching `kind`
/// is populated).
struct Statement {
  StatementKind kind;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<GrantStmt> grant;
  std::shared_ptr<SelectStmt> select;
};

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_AST_H_
