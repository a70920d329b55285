// Copyright (c) 2026 The db2graph-repro Authors.
//
// SELECT execution: FROM resolution (tables, views, subqueries, table
// functions), index-assisted joins, filtering, grouping/aggregation,
// DISTINCT, ORDER BY and LIMIT. Simple by design, but with the access-path
// behaviours the paper's optimizations rely on: equality and IN predicates
// on indexed columns become index probes instead of scans.
//
// Execution is organized as a pull-based operator tree over RowBlocks
// (scan -> filter -> join -> project -> aggregate/sort -> limit). Compile()
// builds the tree; Next() streams blocks from the root, with LIMIT
// shrinking upstream block capacities so scans stop at the row budget;
// Select() is the materializing Compile()+Drain() convenience that existing
// callers use.

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

/// The keys `probe` looks up for `outer`: the cartesian product of its
/// terms' values (IN lists contribute several), sorted and deduplicated so
/// a repeated IN value cannot repeat a row.
std::vector<Row> ProbeKeys(const IndexProbe& probe, const Row& outer,
                           const std::vector<Value>* params);

/// Slots of `table` whose row satisfies `where` (bound against the table
/// alone, referenced as `alias`; null matches every row), in ascending
/// slot order. Probes an index when PlanIndexProbe finds one, else scans
/// every live slot; either way the full WHERE is re-evaluated on each
/// candidate. Records the access path and the candidates examined in
/// `exec`. The UPDATE/DELETE target search: it only reads, so callers
/// collect every target before mutating.
std::vector<RowId> FindTargetRows(const Table& table, const std::string& alias,
                                  const Expr* where,
                                  const std::vector<Value>* params,
                                  ExecInfo* exec);

/// A compiled SELECT: the operator tree plus everything it borrows
/// (bound expression clones, materialized FROM relations). Pull blocks
/// with Next() or materialize everything with Drain(). The caller must
/// hold the database read lock for the plan's whole lifetime and keep the
/// source SelectStmt alive (bound expressions point into it).
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

  /// Pulls everything and returns the materialized result — the
  /// compatibility adapter Database::Execute sits on.
  Result<ResultSet> Drain();

 private:
  friend class Executor;
  struct State;
  explicit SelectPlan(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// Executes one SELECT against a database. The caller must already hold the
/// database lock (Database::Execute does).
class Executor {
 public:
  Executor(Database* db, const std::vector<Value>* params)
      : db_(db), params_(params) {}

  /// View expansion runs with definer's rights: a grant on the view is
  /// enough, so the inner executor skips per-table checks.
  void set_skip_access_checks(bool skip) { skip_access_checks_ = skip; }

  /// Builds the streaming operator tree for `stmt`. The returned plan
  /// captures db and params pointers; both must outlive it.
  Result<std::unique_ptr<SelectPlan>> Compile(const SelectStmt& stmt,
                                              size_t block_rows =
                                                  kDefaultBlockRows);

  Result<ResultSet> Select(const SelectStmt& stmt);

 private:
  struct Relation {
    std::string alias;
    std::vector<std::string> columns;
    const class Table* table = nullptr;  // base table access path
    std::vector<Row> rows;               // materialized otherwise
    /// Set for virtual tables: the snapshot Table `table` points into.
    /// The plan pins it so scans (row or vectorized) can keep raw
    /// pointers; base tables are owned by the catalog and leave it null.
    std::shared_ptr<class Table> owned;
    bool materialized() const { return table == nullptr; }
  };

  Result<Relation> ResolveRef(const TableRef& ref);

  Database* db_;
  const std::vector<Value>* params_;
  bool skip_access_checks_ = false;
};

/// Binds every expression of `stmt` against its own FROM scope and sets
/// stmt->prebound on success (used by Database::Prepare so repeated
/// executions skip per-call clone+bind). Returns false when the statement
/// shape cannot be prebound (e.g. ORDER BY aliases); execution then falls
/// back to per-call binding.
bool PrebindSelect(Database* db, SelectStmt* stmt);

/// Derives the output column shape of a SELECT without executing it
/// (used for CREATE VIEW schemas). Best-effort types.
Result<std::vector<ColumnDef>> DeriveSelectColumns(Database* db,
                                                   const SelectStmt& stmt);

/// Column shape a FROM-clause reference exposes.
Result<std::vector<ColumnDef>> RelationColumns(Database* db,
                                               const TableRef& ref);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_EXECUTOR_H_
