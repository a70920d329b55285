// Copyright (c) 2026 The db2graph-repro Authors.
//
// The MiniDb2 facade: catalog of tables, views, indexes and registered
// polymorphic table functions; statement execution; prepared statements;
// and multi-statement transactions with an undo log.
//
// Concurrency model mirrors what the paper leans on ("the underlying Db2
// engine is extremely good at handling concurrent queries"): reads take a
// shared lock, writes take an exclusive lock, so concurrent SELECT-heavy
// workloads scale with cores.

#ifndef DB2GRAPH_SQL_DATABASE_H_
#define DB2GRAPH_SQL_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/exec_config.h"
#include "common/metrics.h"
#include "common/status.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "sql/row_source.h"
#include "sql/table.h"
#include "sql/virtual_table.h"

namespace db2graph::sql {

/// Cumulative execution counters, used by tests to assert that the graph
/// layer's optimizations actually change the access paths. Readers should
/// take a Snapshot() rather than load the live atomics field by field —
/// a snapshot is one coherent point-in-time view for assertions and
/// reporting, while field-by-field loads can interleave with concurrent
/// statements.
struct ExecStats {
  metrics::Counter selects;
  metrics::Counter rows_scanned;    // rows examined by scans/probes
  metrics::Counter index_probes;    // index point/IN lookups
  metrics::Counter range_scans;     // ordered-index range lookups
  metrics::Counter full_scans;      // table scans
  metrics::Counter rows_returned;
  metrics::Counter writes;          // write-path statements executed

  /// Plain-value copy of every counter.
  struct Counts {
    uint64_t selects = 0;
    uint64_t rows_scanned = 0;
    uint64_t index_probes = 0;
    uint64_t range_scans = 0;
    uint64_t full_scans = 0;
    uint64_t rows_returned = 0;
    uint64_t writes = 0;
  };

  Counts Snapshot() const {
    Counts c;
    c.selects = selects.load();
    c.rows_scanned = rows_scanned.load();
    c.index_probes = index_probes.load();
    c.range_scans = range_scans.load();
    c.full_scans = full_scans.load();
    c.rows_returned = rows_returned.load();
    c.writes = writes.load();
    return c;
  }

  void Reset() {
    selects = 0;
    rows_scanned = 0;
    index_probes = 0;
    range_scans = 0;
    full_scans = 0;
    rows_returned = 0;
    writes = 0;
  }
};

class Database;
class SelectSection;

/// A live streaming SELECT: pull blocks with Next() until exhaustion, then
/// check status(). The stream holds the database's shared (read) lock and
/// the plan (and the section it was opened from) for its whole lifetime,
/// so:
///  - consume and Close() it on the thread that created it;
///  - do not issue write statements on that thread while it is open (the
///    reentrant read lock would self-deadlock behind the writer);
///  - Close() (or destruction) releases the plan and the lock eagerly —
///    that is the early-termination signal that cancels pending work.
class RowStream : public RowSource {
 public:
  ~RowStream() override;
  RowStream(RowStream&&) = delete;
  RowStream& operator=(RowStream&&) = delete;

  const std::vector<std::string>& columns() const { return columns_; }

  bool Next(RowBlock* out) override;
  void Close() override;

  /// OK unless execution failed mid-stream.
  const Status& status() const;
  /// Access-path counters so far (complete after exhaustion or Close()).
  const ExecInfo& exec() const;

 private:
  friend class Database;
  struct Impl;
  explicit RowStream(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;  // null once closed
  std::vector<std::string> columns_;
  Status status_ = Status::OK();  // the plan's, kept by Close()
  ExecInfo exec_;                 // the plan's, kept by Close()
};

/// A parsed statement bound to a database, executable repeatedly with
/// different '?' parameter vectors. This is what the SQL Dialect module's
/// pre-compiled template cache hands out. Copies share one handle. For a
/// SELECT the handle keeps the compiled SelectSection: built by the first
/// execution, shared by every later one (concurrent ones included), and
/// rebuilt once when a DDL statement has moved Database::ddl_version()
/// since. Only the operator tree and its cursors are made per call.
class PreparedStatement {
 public:
  int param_count() const { return param_count_; }

  Result<ResultSet> Execute(const std::vector<Value>& params) const;

  /// Streaming variant (SELECT statements only).
  Result<std::unique_ptr<RowStream>> ExecuteStreaming(
      const std::vector<Value>& params,
      size_t block_rows = kDefaultBlockRows) const;

 private:
  friend class Database;
  struct Handle;
  PreparedStatement(Database* db, std::shared_ptr<Handle> handle,
                    int param_count)
      : db_(db), handle_(std::move(handle)), param_count_(param_count) {}

  Database* db_;
  std::shared_ptr<Handle> handle_;
  int param_count_;
};

/// An in-memory relational database with SQL front end.
class Database {
 public:
  Database();
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Prepares and executes one statement: a SELECT builds its section,
  /// runs it once and drops it.
  Result<ResultSet> Execute(const std::string& sql);

  /// Executes a ';'-separated script of statements, discarding results.
  Status ExecuteScript(const std::string& script);

  /// Parses once; execute many times with parameters.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Parses and compiles one SELECT into a pull-based block stream instead
  /// of materializing the result. See RowStream for lifetime rules.
  Result<std::unique_ptr<RowStream>> ExecuteStreaming(
      const std::string& sql, size_t block_rows = kDefaultBlockRows);

  // -- catalog ----------------------------------------------------------
  /// Names of base tables (not views).
  std::vector<std::string> TableNames() const;
  /// Names of views.
  std::vector<std::string> ViewNames() const;
  /// Schema of a base table or a view (views expose derived columns, an
  /// empty primary key, and no foreign keys). nullptr when absent.
  const TableSchema* GetSchema(const std::string& name) const;
  bool HasRelation(const std::string& name) const;
  bool IsView(const std::string& name) const;
  /// Base table access (nullptr for views/absent). The pointer stays valid
  /// until the table is dropped.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  // -- table functions ---------------------------------------------------
  using TableFunction =
      std::function<Result<ResultSet>(const std::vector<Value>& args)>;
  /// Registers TABLE(name(...)) for use in FROM clauses (this is the seam
  /// the paper's graphQuery polymorphic table function plugs into).
  void RegisterTableFunction(const std::string& name, TableFunction fn);
  const TableFunction* FindTableFunction(const std::string& name) const;

  // -- virtual tables -----------------------------------------------------
  /// Registers a read-only virtual table (the sysmon.* monitoring catalog
  /// plugs in here). def.schema.name is the full catalog name, typically
  /// schema-qualified ("sysmon.query_log"); a scan materializes a fresh
  /// snapshot through def.fill and runs it through the ordinary operators.
  /// Re-registering a name replaces the definition.
  void RegisterVirtualTable(VirtualTableDef def);
  /// nullptr when absent; the pointer stays valid until re-registration.
  const VirtualTableDef* FindVirtualTable(const std::string& name) const;
  std::vector<std::string> VirtualTableNames() const;

  // -- bookkeeping --------------------------------------------------------
  /// Approximate in-memory bytes across all tables and indexes.
  size_t ApproxBytes() const;
  /// Approximate compact on-disk bytes (see Table::ApproxDiskBytes).
  size_t ApproxDiskBytes() const;
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }

  // -- execution configuration --------------------------------------------
  /// The session layer of the ExecConfig resolution chain: fields the
  /// session config leaves unset fall through to ExecConfig::ProcessDefault()
  /// and from there to the engine defaults; a thread-local per-query
  /// override (ScopedExecConfig) wins over both. A graph's
  /// Db2Graph::Options::exec overlays this layer for that graph's
  /// executions only.
  void SetExecConfig(const ExecConfig& config);
  ExecConfig exec_config() const;
  /// The effective config for a statement starting now on this thread:
  /// process defaults <- session config <- ExecConfig::Current(). Takes no
  /// lock unless a configuration write moved ExecConfig::Generation()
  /// since this thread's last resolution for this database.
  ExecConfig ResolveExecConfig() const;

  /// True while a BEGIN..COMMIT/ROLLBACK transaction is open.
  bool InTransaction() const { return in_transaction_; }

  /// Monotonic counter bumped by every DDL statement (CREATE/DROP of
  /// tables, views, and indexes). Lets overlay holders detect that their
  /// mapping may be stale — the paper's planned AutoOverlay-catalog
  /// integration (Section 5.1) — and prepared SELECTs that their compiled
  /// section may point at dropped or reshaped tables.
  uint64_t ddl_version() const {
    return ddl_version_.load(std::memory_order_acquire);
  }

  /// Monotonic counter bumped (under the exclusive lock) by every
  /// write-path statement: INSERT/UPDATE/DELETE, DDL, and transaction
  /// control. Caches above the SQL layer (the graph layer's hot-vertex
  /// cache) tag entries with the epoch observed before their read and
  /// lazily discard entries whose epoch no longer matches — any committed
  /// write therefore invalidates them without a cross-layer callback.
  uint64_t write_epoch() const {
    return write_epoch_.load(std::memory_order_acquire);
  }

  /// Sum of Table::stats_version() over all base tables: a cheap,
  /// monotonically non-decreasing fingerprint of the catalog statistics.
  /// Plans whose shape depended on statistics (the graph layer's multi-hop
  /// collapse) record the epoch they were compiled under and recompile
  /// when drift exceeds their threshold.
  uint64_t stats_epoch() const;

  /// Point-in-time statistics snapshot of one base table: live row count
  /// plus per-column stats (null counts, min/max, NDV), taken under the
  /// shared lock (re-entrant if the caller already holds it). Returns
  /// false when the table is absent or is a view.
  struct TableStats {
    uint64_t row_count = 0;
    std::vector<Table::ColumnStats> columns;
  };
  bool SnapshotTableStats(const std::string& name, TableStats* out) const;

  /// True when the calling thread currently holds this database's shared
  /// (read) lock — i.e. we are inside a SELECT, e.g. evaluating a
  /// graphQuery table function. Used by the graph layer to suppress
  /// intra-query fan-out: handing sub-reads to other threads while this
  /// thread pins the shared lock could deadlock behind a queued writer.
  bool ReadLockHeldByThisThread() const;

  // -- access control ------------------------------------------------------
  // Off by default (every statement runs unchecked). Once enabled, SELECT
  // requires a SELECT grant on every referenced relation and DML requires
  // an ALL grant; views run with definer's rights (a grant on the view
  // suffices — the expansion does not re-check the underlying tables).
  // This is the mechanism graph queries inherit "for free": an overlay
  // over tables the current user cannot read fails exactly like the SQL
  // would (paper Section 1).
  void EnableAccessControl() { access_control_ = true; }
  bool access_control_enabled() const { return access_control_; }
  /// Sets the user for subsequent statements ("" = superuser).
  void SetCurrentUser(std::string user);
  const std::string& current_user() const { return current_user_; }
  /// Programmatic grant API (SQL GRANT/REVOKE routes here).
  void Grant(const std::string& user, const std::string& relation,
             bool select_only);
  void Revoke(const std::string& user, const std::string& relation);
  /// OK when access control is off, the user is the superuser, or a
  /// sufficient grant exists.
  Status CheckAccess(const std::string& relation, bool write) const;

 private:
  friend class SelectSection;
  friend class PreparedStatement;

  struct ViewDef {
    std::shared_ptr<SelectStmt> select;
    std::string select_text;
    TableSchema derived_schema;  // name + derived output columns
  };

  // Undo-log entry for transaction rollback.
  struct UndoRecord {
    enum class Kind { kInsert, kDelete, kUpdate };
    Kind kind;
    std::string table;
    RowId rid;
    Row before;  // kDelete / kUpdate
  };

  /// The section `handle`'s SELECT runs, rebuilt first when a DDL
  /// statement has moved ddl_version since it was built; valid while the
  /// caller holds the read lock and the handle. Caller holds the read
  /// lock.
  Result<const SelectSection*> SectionFor(PreparedStatement::Handle& handle);
  /// The one execution path: every statement runs through a prepared
  /// handle (Execute(text) prepares one for the call), SELECT and write
  /// alike.
  Result<ResultSet> Run(PreparedStatement::Handle& handle,
                        const std::vector<Value>& params);
  Result<std::unique_ptr<RowStream>> OpenStream(
      std::shared_ptr<PreparedStatement::Handle> handle,
      const std::vector<Value>& params, size_t block_rows);

  Result<ResultSet> ExecuteLocked(const Statement& stmt,
                                  const std::vector<Value>& params);
  Result<ResultSet> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> ExecuteCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> ExecuteCreateView(const CreateViewStmt& stmt);
  Result<ResultSet> ExecuteDropTable(const DropTableStmt& stmt);
  Result<ResultSet> ExecuteInsert(const InsertStmt& stmt,
                                  const std::vector<Value>& params);
  Result<ResultSet> ExecuteUpdate(const UpdateStmt& stmt,
                                  const std::vector<Value>& params);
  Result<ResultSet> ExecuteDelete(const DeleteStmt& stmt,
                                  const std::vector<Value>& params);
  Status CheckForeignKeysOnInsert(const Table& table, const Row& row);

  void LogUndo(UndoRecord record);
  void RollbackLocked();

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, ViewDef> views_;
  std::unordered_map<std::string, TableFunction> table_functions_;
  std::unordered_map<std::string, VirtualTableDef> virtual_tables_;
  bool in_transaction_ = false;
  std::vector<UndoRecord> undo_log_;
  ExecStats stats_;

  std::atomic<uint64_t> ddl_version_{0};
  std::atomic<uint64_t> write_epoch_{0};
  mutable std::mutex exec_config_mutex_;
  ExecConfig session_exec_config_;
  bool access_control_ = false;
  std::string current_user_;  // "" = superuser
  struct Privilege {
    bool select = false;
    bool modify = false;
  };
  // (user, relation) -> privilege
  std::map<std::pair<std::string, std::string>, Privilege> grants_;
};

/// Case-normalized catalog key.
std::string CatalogKey(const std::string& name);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_DATABASE_H_
