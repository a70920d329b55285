// Copyright (c) 2026 The db2graph-repro Authors.
//
// SELECT execution: FROM resolution (tables, views, subqueries, table
// functions), index-assisted joins, filtering, grouping/aggregation,
// DISTINCT, ORDER BY and LIMIT. Simple by design, but with the access-path
// behaviours the paper's optimizations rely on: equality and IN predicates
// on indexed columns become index probes instead of scans.
//
// A SELECT runs in two halves, the plan-node/executor split of a classic
// RDBMS:
//  - A SelectSection is the compiled statement: resolved relations, bound
//    expressions, each join stage's access path (index probe and the
//    residual conjuncts it leaves, hash or range candidate, counted or
//    not), the projection and aggregate layout and the profile labels. It is immutable once built, so any number
//    of concurrent executions share one. It records the catalog's
//    ddl_version and is valid only while that version stands.
//  - A SelectPlan is one execution of a section: the pull-based operator
//    tree (scan -> join -> filter, passing tuples of slot ids, then
//    project / aggregate / sort -> distinct -> limit over RowBlocks) with
//    its cursors, buffers, parameters and counters. Open() builds it and reads dop, block size, vectorization
//    and profiling from the resolved ExecConfig; views, subqueries, table
//    functions and virtual-table snapshots are materialized per execution.
//    Next() streams blocks from the root, with LIMIT shrinking upstream
//    block capacities so scans stop at the row budget.
#ifndef DB2GRAPH_SQL_EXECUTOR_H_
#define DB2GRAPH_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "sql/row_source.h"
#include "sql/table.h"

namespace db2graph::sql {

class ColumnReader;
class Database;
class Scope;

/// An equality/IN term that can probe a hash index on one relation:
/// `column = v` has one value expression, `column IN (v1, ...)` one per
/// list entry. Every value binds in the scope outside the relation, so it
/// is computable before the relation is read: per outer row in a join
/// stage, from constants and parameters alone for UPDATE/DELETE.
struct ProbeTerm {
  size_t column_index = 0;  // within the probed table
  std::vector<const Expr*> values;
  const Expr* conjunct = nullptr;  // the `=` / IN conjunct it came from
};

/// An index access path: the index ChooseProbeIndex picked and the terms
/// feeding it, one per index column in index column order. `index` is
/// null when no conjunct offers a usable term.
struct IndexProbe {
  const Index* index = nullptr;
  std::vector<ProbeTerm> terms;
};

/// Plans the index probe on `table` (referenced as `alias`) from bound
/// `conjuncts` whose probe values bind in `outer`. This is the one
/// probe-term extractor: SELECT join stages pass the scope of the stages
/// before them, UPDATE/DELETE pass an empty scope.
IndexProbe PlanIndexProbe(const Table& table, const std::string& alias,
                          const std::vector<const Expr*>& conjuncts,
                          const Scope& outer);

/// The keys `probe` looks up, its values read through `outer`, flattened
/// into `keys` with one value per term: one key, or the values of an IN
/// list sorted and deduplicated so a repeated IN value cannot repeat a
/// row. A key holding NULL is left
/// out of `keys`, since `=` and IN never match NULL while the index would
/// find NULL keys; it still counts as a probe, answered empty. Returns the
/// number of probes: the distinct keys.
size_t ProbeKeys(const IndexProbe& probe, const ColumnReader& outer,
                 const std::vector<Value>* params, std::vector<Value>* keys);

/// Slots of `table` whose row satisfies `where` (bound against the table
/// alone, referenced as `alias`; null matches every row), in ascending
/// slot order. Probes an index when PlanIndexProbe finds one, else scans
/// every live slot; either way the full WHERE is re-evaluated on each
/// candidate, reading its columns in place. Records the access path and the candidates examined in
/// `exec`. The UPDATE/DELETE target search: it only reads, so callers
/// collect every target before mutating.
std::vector<RowId> FindTargetRows(const Table& table, const std::string& alias,
                                  const Expr* where,
                                  const std::vector<Value>* params,
                                  ExecInfo* exec);

/// One execution of a SelectSection: the operator tree plus its per-call
/// state. Pull blocks with Next() or materialize everything with Drain().
/// The caller must hold the database read lock for the plan's whole
/// lifetime and keep the section and the parameter vector alive.
class SelectPlan : public RowSource {
 public:
  ~SelectPlan() override;
  SelectPlan(SelectPlan&&) = delete;
  SelectPlan& operator=(SelectPlan&&) = delete;

  const std::vector<std::string>& columns() const;

  /// Pulls the next block from the root operator. Returns false on
  /// exhaustion or error; check status() to distinguish.
  bool Next(RowBlock* out) override;

  /// Releases operator state eagerly (idempotent; also run by the dtor).
  void Close() override;

  /// OK unless execution failed mid-stream.
  const Status& status() const;

  /// Access-path counters accumulated so far (complete after exhaustion).
  const ExecInfo& exec() const;

  /// Pulls everything and returns the materialized result.
  Result<ResultSet> Drain();

 private:
  friend class SelectSection;
  struct State;
  explicit SelectPlan(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// The compiled, immutable half of one SELECT. Build() does everything
/// that depends only on the statement and the catalog; Open() does
/// everything that depends on the call. A section is never modified after
/// Build(), so concurrent executions share it without locks.
class SelectSection {
 public:
  /// Registry counter bumped once per section built (nested sections of
  /// views and subqueries included).
  static constexpr const char* kCompilesCounter = "sql.compiles";

  ~SelectSection();
  SelectSection(const SelectSection&) = delete;
  SelectSection& operator=(const SelectSection&) = delete;

  /// Compiles `stmt` against the catalog as it stands. The caller holds
  /// the database read lock, which keeps the recorded ddl_version exact.
  static Result<std::shared_ptr<const SelectSection>> Build(
      Database* db, std::shared_ptr<const SelectStmt> stmt);

  /// Database::ddl_version() when the section was built. Any DDL since
  /// then may have dropped or reshaped what the section points at, so the
  /// owner rebuilds instead of opening a section whose version is stale.
  uint64_t ddl_version() const { return ddl_version_; }

  const std::vector<std::string>& columns() const;

  /// Opens one top-level execution. The caller holds the database read
  /// lock and keeps this section and `params` alive for the plan's
  /// lifetime. `block_rows` other than the default overrides ExecConfig's.
  /// It files one sysmon.query_log entry when its plan closes (reporting
  /// the rows it delivered), or here when it fails to open.
  Result<std::unique_ptr<SelectPlan>> Open(
      const std::vector<Value>* params,
      size_t block_rows = kDefaultBlockRows) const;

  /// Opens and drains one execution; for EXPLAIN [ANALYZE] returns the
  /// rendered operator tree, one row per line, instead.
  Result<ResultSet> Run(const std::vector<Value>* params) const;

 private:
  struct Layout;
  /// Open() without the query-log entry: a view or subquery body.
  Result<std::unique_ptr<SelectPlan>> OpenPlan(
      const std::vector<Value>* params, size_t block_rows) const;
  SelectSection(Database* db, std::shared_ptr<const SelectStmt> stmt,
                uint64_t ddl_version, std::unique_ptr<Layout> layout);
  /// Build() with access checks on or off: a view's body runs with its
  /// definer's rights, so its section skips them.
  static Result<std::shared_ptr<const SelectSection>> BuildWithAccess(
      Database* db, std::shared_ptr<const SelectStmt> stmt,
      bool check_access);

  Database* db_;
  std::shared_ptr<const SelectStmt> stmt_;  // bound clones point into it
  uint64_t ddl_version_;
  std::unique_ptr<const Layout> layout_;
};

/// sysmon.query_log script label of a SELECT: kind plus relations read.
std::string DescribeSelect(const SelectStmt& stmt);

/// Files a layer "sql" sysmon.query_log entry for a finished statement;
/// `exec` is null when it failed before executing.
void RecordQueryLog(std::string script, const ExecInfo* exec,
                    uint64_t rows_emitted, const Status& status,
                    uint64_t micros);

/// Derives the output column shape of a SELECT without executing it
/// (used for CREATE VIEW schemas). Best-effort types.
Result<std::vector<ColumnDef>> DeriveSelectColumns(Database* db,
                                                   const SelectStmt& stmt);

/// Column shape a FROM-clause reference exposes.
Result<std::vector<ColumnDef>> RelationColumns(Database* db,
                                               const TableRef& ref);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_EXECUTOR_H_
