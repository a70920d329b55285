#include "sql/database.h"

#include <unordered_map>

#include "common/query_log.h"
#include "common/strings.h"
#include "common/trace.h"
#include "sql/executor.h"
#include "sql/expr.h"
#include "sql/parser.h"
#include "sql/sysmon.h"

namespace db2graph::sql {

std::string CatalogKey(const std::string& name) { return ToLower(name); }

namespace {

// Reader reentrancy: a table function invoked inside a SELECT (e.g. the
// graphQuery function) issues further SELECTs against the same database on
// the same thread. A plain shared_mutex would self-deadlock, so we track a
// per-thread shared-lock depth per database instance and only lock at depth
// zero. Table functions must be read-only (as the paper's graphQuery is).
thread_local std::unordered_map<const void*, int> tls_read_depth;

class ReadLock {
 public:
  explicit ReadLock(const Database* db, std::shared_mutex* mutex)
      : db_(db), mutex_(mutex) {
    if (tls_read_depth[db_]++ == 0) mutex_->lock_shared();
  }
  ~ReadLock() {
    if (--tls_read_depth[db_] == 0) {
      mutex_->unlock_shared();
      tls_read_depth.erase(db_);
    }
  }

 private:
  const Database* db_;
  std::shared_mutex* mutex_;
};

class WriteLock {
 public:
  explicit WriteLock(std::shared_mutex* mutex) : mutex_(mutex) {
    mutex_->lock();
  }
  ~WriteLock() { mutex_->unlock(); }

 private:
  std::shared_mutex* mutex_;
};

// Compact script label for sysmon.query_log entries. Run only sees the
// parsed AST (prepared statements never carry their text), so the
// label is synthesized: statement kind plus the relations it touches.
std::string DescribeStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return DescribeSelect(*stmt.select);
    case StatementKind::kInsert:
      return "INSERT INTO " + stmt.insert->table;
    case StatementKind::kUpdate:
      return "UPDATE " + stmt.update->table;
    case StatementKind::kDelete:
      return "DELETE FROM " + stmt.del->table;
    case StatementKind::kCreateTable:
      return "CREATE TABLE " + stmt.create_table->schema.name;
    case StatementKind::kCreateIndex:
      return "CREATE INDEX " + stmt.create_index->index_name;
    case StatementKind::kCreateView:
      return "CREATE VIEW " + stmt.create_view->name;
    case StatementKind::kDropTable:
      return "DROP " + stmt.drop_table->table;
    case StatementKind::kGrant:
    case StatementKind::kRevoke:
      return stmt.grant->is_revoke ? "REVOKE" : "GRANT";
    case StatementKind::kBegin:
      return "BEGIN";
    case StatementKind::kCommit:
      return "COMMIT";
    case StatementKind::kRollback:
      return "ROLLBACK";
  }
  return "UNKNOWN";
}

}  // namespace

Database::Database() {
  ExecConfig::BumpGeneration();
  RegisterSysmonTables(this);
}
Database::~Database() = default;

// ---------------------------------------------------------------------
// Streaming execution
// ---------------------------------------------------------------------

struct PreparedStatement::Handle {
  std::shared_ptr<const Statement> stmt;
  // SELECT only: the section executions open and the ddl_version it was
  // built under. Both change only under build_mutex, after a DDL statement
  // moved ddl_version. Every execution holds the read lock that DDL had to
  // wait for, so by the time any thread sees the new version no execution
  // is still running the section being replaced, and it can be freed.
  std::atomic<const SelectSection*> section{nullptr};
  std::atomic<uint64_t> section_version{0};
  std::shared_ptr<const SelectSection> owned;  // guarded by build_mutex
  std::mutex build_mutex;
};

// Member order matters: the read lock is declared first so it is destroyed
// last, after the plan (which touches table storage) and the section it
// borrows from are gone.
struct RowStream::Impl {
  ReadLock lock;
  std::shared_ptr<const void> owner;  // the prepared handle
  std::vector<Value> params;          // the plan points at this copy
  std::unique_ptr<SelectPlan> plan;

  Impl(const Database* db, std::shared_mutex* mutex,
       std::vector<Value> params_in)
      : lock(db, mutex), params(std::move(params_in)) {}
};

RowStream::RowStream(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {
  columns_ = impl_->plan->columns();
}

RowStream::~RowStream() { Close(); }

bool RowStream::Next(RowBlock* out) {
  return impl_ != nullptr && impl_->plan->Next(out);
}

const Status& RowStream::status() const {
  return impl_ != nullptr ? impl_->plan->status() : status_;
}

const ExecInfo& RowStream::exec() const {
  return impl_ != nullptr ? impl_->plan->exec() : exec_;
}

void RowStream::Close() {
  if (impl_ == nullptr) return;
  impl_->plan->Close();
  status_ = impl_->plan->status();
  exec_ = impl_->plan->exec();
  impl_.reset();  // releases the plan, the section, and the read lock
}

Result<std::unique_ptr<RowStream>> Database::ExecuteStreaming(
    const std::string& sql, size_t block_rows) {
  Result<PreparedStatement> prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  return OpenStream(prepared->handle_, {}, block_rows);
}

Result<std::unique_ptr<RowStream>> Database::OpenStream(
    std::shared_ptr<PreparedStatement::Handle> handle,
    const std::vector<Value>& params, size_t block_rows) {
  if (handle->stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument(
        "streaming execution supports SELECT statements only");
  }
  auto impl = std::make_unique<RowStream::Impl>(this, &mutex_, params);
  Result<const SelectSection*> section = SectionFor(*handle);
  if (!section.ok()) return section.status();  // Impl dtor releases the lock
  impl->owner = std::move(handle);
  Result<std::unique_ptr<SelectPlan>> plan =
      (*section)->Open(&impl->params, block_rows);
  if (!plan.ok()) return plan.status();
  impl->plan = std::move(*plan);
  return std::unique_ptr<RowStream>(new RowStream(std::move(impl)));
}

Result<ResultSet> PreparedStatement::Execute(
    const std::vector<Value>& params) const {
  if (static_cast<int>(params.size()) != param_count_) {
    return Status::InvalidArgument(
        "prepared statement expects " + std::to_string(param_count_) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  return db_->Run(*handle_, params);
}

Result<std::unique_ptr<RowStream>> PreparedStatement::ExecuteStreaming(
    const std::vector<Value>& params, size_t block_rows) const {
  if (static_cast<int>(params.size()) != param_count_) {
    return Status::InvalidArgument(
        "prepared statement expects " + std::to_string(param_count_) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  return db_->OpenStream(handle_, params, block_rows);
}

Result<ResultSet> Database::Execute(const std::string& sql) {
  Result<PreparedStatement> prepared = Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  return Run(*prepared->handle_, {});
}

Status Database::ExecuteScript(const std::string& script) {
  // Split on ';' at top level (quotes respected).
  std::vector<std::string> statements;
  std::string current;
  bool in_string = false;
  for (size_t i = 0; i < script.size(); ++i) {
    char c = script[i];
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      statements.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  statements.push_back(current);
  for (const std::string& text : statements) {
    if (Trim(text).empty()) continue;
    Result<ResultSet> rs = Execute(text);
    if (!rs.ok()) {
      return Status(rs.status().code(),
                    rs.status().message() + " (in statement: " + Trim(text) +
                        ")");
    }
  }
  return Status::OK();
}

Result<PreparedStatement> Database::Prepare(const std::string& sql) {
  int param_count = 0;
  Result<std::unique_ptr<Statement>> stmt = ParseSql(sql, &param_count);
  if (!stmt.ok()) return stmt.status();
  // A SELECT compiles on its first execution, under that execution's
  // read lock, so the section's ddl_version is exact.
  auto handle = std::make_shared<PreparedStatement::Handle>();
  handle->stmt = std::move(*stmt);
  return PreparedStatement(this, std::move(handle), param_count);
}

Result<const SelectSection*> Database::SectionFor(
    PreparedStatement::Handle& handle) {
  // DDL takes the exclusive lock, so under the caller's read lock the
  // version cannot move between this check and the plan's last row.
  const uint64_t version = ddl_version();
  auto current = [&]() -> const SelectSection* {
    return handle.section_version.load(std::memory_order_acquire) == version
               ? handle.section.load(std::memory_order_acquire)
               : nullptr;
  };
  if (const SelectSection* section = current()) return section;
  std::lock_guard<std::mutex> guard(handle.build_mutex);
  if (const SelectSection* section = current()) return section;
  const uint64_t start = TraceClock::Default()->NowMicros();
  Result<std::shared_ptr<const SelectSection>> built =
      SelectSection::Build(this, handle.stmt->select);
  if (!built.ok()) {
    // No plan opens, so the failed compile is the statement's log entry.
    RecordQueryLog(DescribeSelect(*handle.stmt->select), nullptr, 0,
                   built.status(), TraceClock::Default()->NowMicros() - start);
    return built.status();
  }
  handle.owned = std::move(*built);  // frees the replaced section
  handle.section.store(handle.owned.get(), std::memory_order_release);
  handle.section_version.store(handle.owned->ddl_version(),
                               std::memory_order_release);
  return handle.owned.get();
}

Result<ResultSet> Database::Run(PreparedStatement::Handle& handle,
                                const std::vector<Value>& params) {
  const Statement& stmt = *handle.stmt;
  if (stmt.kind == StatementKind::kSelect) {
    // A SELECT files its query-log entry itself, when its plan closes.
    ReadLock lock(this, &mutex_);
    Result<const SelectSection*> section = SectionFor(handle);
    if (!section.ok()) return section.status();
    return (*section)->Run(&params);
  }
  auto execute = [&]() -> Result<ResultSet> {
    WriteLock lock(&mutex_);
    // Bumped under the exclusive lock: readers that observe the new epoch
    // are serialized after this write, so data they fetch and tag with it
    // cannot be stale. (Bumping outside the lock would let a reader tag
    // pre-write data with the post-write epoch.)
    write_epoch_.fetch_add(1, std::memory_order_acq_rel);
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    return ExecuteLocked(stmt, params);
  };
  if (!QueryLog::Global().enabled()) return execute();
  uint64_t start = TraceClock::Default()->NowMicros();
  Result<ResultSet> result = execute();
  // A write reports the rows it affected.
  RecordQueryLog(DescribeStatement(stmt), result.ok() ? &result->exec : nullptr,
                 result.ok() ? static_cast<uint64_t>(result->affected) : 0,
                 result.status(), TraceClock::Default()->NowMicros() - start);
  return result;
}

uint64_t Database::stats_epoch() const {
  ReadLock lock(this, &mutex_);
  uint64_t epoch = 0;
  for (const auto& [key, table] : tables_) {
    (void)key;
    epoch += table->stats_version();
  }
  return epoch;
}

bool Database::SnapshotTableStats(const std::string& name,
                                  TableStats* out) const {
  ReadLock lock(this, &mutex_);
  auto it = tables_.find(CatalogKey(name));
  if (it == tables_.end()) return false;
  const Table& table = *it->second;
  out->row_count = table.row_count();
  out->columns.clear();
  out->columns.reserve(table.column_count());
  for (size_t c = 0; c < table.column_count(); ++c) {
    out->columns.push_back(table.GetColumnStats(c));
  }
  return true;
}

bool Database::ReadLockHeldByThisThread() const {
  auto it = tls_read_depth.find(this);
  return it != tls_read_depth.end() && it->second > 0;
}

void Database::SetExecConfig(const ExecConfig& config) {
  {
    std::lock_guard<std::mutex> lock(exec_config_mutex_);
    session_exec_config_ = config;
  }
  ExecConfig::BumpGeneration();
}

ExecConfig Database::exec_config() const {
  std::lock_guard<std::mutex> lock(exec_config_mutex_);
  return session_exec_config_;
}

ExecConfig Database::ResolveExecConfig() const {
  // The process and session layers change only through calls that move
  // ExecConfig::Generation(), so each thread keeps them resolved and
  // re-reads them under their locks only when the generation moved or it
  // last resolved for another database. The generation is read before
  // the layers, so a write racing the re-read is caught by the next call.
  struct Resolved {
    const Database* db = nullptr;
    uint64_t generation = 0;
    ExecConfig layers;
  };
  thread_local Resolved resolved;
  const uint64_t generation = ExecConfig::Generation();
  if (resolved.db != this || resolved.generation != generation) {
    resolved.layers = ExecConfig::ProcessDefault().OverlaidBy(exec_config());
    resolved.db = this;
    resolved.generation = generation;
  }
  return resolved.layers.OverlaidBy(ExecConfig::Current());
}

void Database::SetCurrentUser(std::string user) {
  current_user_ = ToLower(user);
}

void Database::Grant(const std::string& user, const std::string& relation,
                     bool select_only) {
  Privilege& p = grants_[{ToLower(user), CatalogKey(relation)}];
  p.select = true;
  if (!select_only) p.modify = true;
}

void Database::Revoke(const std::string& user, const std::string& relation) {
  grants_.erase({ToLower(user), CatalogKey(relation)});
}

Status Database::CheckAccess(const std::string& relation, bool write) const {
  if (!access_control_ || current_user_.empty()) return Status::OK();
  auto it = grants_.find({current_user_, CatalogKey(relation)});
  bool allowed = it != grants_.end() &&
                 (write ? it->second.modify : it->second.select);
  if (allowed) return Status::OK();
  return Status::ConstraintViolation(
      "user '" + current_user_ + "' lacks " +
      (write ? "MODIFY" : "SELECT") + " privilege on " + relation);
}

Result<ResultSet> Database::ExecuteLocked(const Statement& stmt,
                                          const std::vector<Value>& params) {
  switch (stmt.kind) {
    case StatementKind::kGrant:
    case StatementKind::kRevoke:
      // Only the superuser administers grants.
      if (access_control_ && !current_user_.empty()) {
        return Status::ConstraintViolation(
            "only the superuser can GRANT/REVOKE");
      }
      if (stmt.grant->is_revoke) {
        Revoke(stmt.grant->user, stmt.grant->table);
      } else {
        Grant(stmt.grant->user, stmt.grant->table,
              stmt.grant->select_only);
      }
      return ResultSet{};
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(*stmt.create_index);
    case StatementKind::kCreateView:
      return ExecuteCreateView(*stmt.create_view);
    case StatementKind::kDropTable:
      return ExecuteDropTable(*stmt.drop_table);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert, params);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update, params);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del, params);
    case StatementKind::kBegin:
      if (in_transaction_) {
        return Status::InvalidArgument("transaction already in progress");
      }
      in_transaction_ = true;
      undo_log_.clear();
      return ResultSet{};
    case StatementKind::kCommit:
      if (!in_transaction_) {
        return Status::InvalidArgument("no transaction in progress");
      }
      in_transaction_ = false;
      undo_log_.clear();
      return ResultSet{};
    case StatementKind::kRollback:
      if (!in_transaction_) {
        return Status::InvalidArgument("no transaction in progress");
      }
      RollbackLocked();
      in_transaction_ = false;
      return ResultSet{};
    case StatementKind::kSelect:
      return Status::Internal("select reached write path");
  }
  return Status::Internal("unknown statement kind");
}

Result<ResultSet> Database::ExecuteCreateTable(const CreateTableStmt& stmt) {
  ddl_version_.fetch_add(1, std::memory_order_release);
  std::string key = CatalogKey(stmt.schema.name);
  if (tables_.count(key) > 0 || views_.count(key) > 0) {
    if (stmt.if_not_exists) return ResultSet{};
    return Status::AlreadyExists("relation " + stmt.schema.name +
                                 " already exists");
  }
  // Validate PK/FK column references.
  for (const std::string& pk : stmt.schema.primary_key) {
    if (!stmt.schema.HasColumn(pk)) {
      return Status::NotFound("PRIMARY KEY column " + pk + " not in table");
    }
  }
  for (const ForeignKey& fk : stmt.schema.foreign_keys) {
    for (const std::string& c : fk.columns) {
      if (!stmt.schema.HasColumn(c)) {
        return Status::NotFound("FOREIGN KEY column " + c + " not in table");
      }
    }
    auto ref = tables_.find(CatalogKey(fk.ref_table));
    if (ref == tables_.end()) {
      return Status::NotFound("FOREIGN KEY references unknown table " +
                              fk.ref_table);
    }
    for (const std::string& c : fk.ref_columns) {
      if (!ref->second->schema().HasColumn(c)) {
        return Status::NotFound("FOREIGN KEY references unknown column " +
                                fk.ref_table + "." + c);
      }
    }
  }
  auto table = std::make_unique<Table>(stmt.schema);
  if (stmt.schema.has_primary_key()) {
    DB2G_RETURN_NOT_OK(table->CreateIndex("pk_" + stmt.schema.name,
                                          stmt.schema.primary_key,
                                          /*unique=*/true));
  }
  tables_.emplace(key, std::move(table));
  return ResultSet{};
}

Result<ResultSet> Database::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  ddl_version_.fetch_add(1, std::memory_order_release);
  auto it = tables_.find(CatalogKey(stmt.table));
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + stmt.table);
  }
  if (stmt.ordered) {
    if (stmt.columns.size() != 1) {
      return Status::Unsupported(
          "ORDERED INDEX supports exactly one column");
    }
    if (stmt.unique) {
      return Status::Unsupported("ORDERED INDEX cannot be UNIQUE");
    }
    DB2G_RETURN_NOT_OK(
        it->second->CreateOrderedIndex(stmt.index_name, stmt.columns[0]));
    return ResultSet{};
  }
  DB2G_RETURN_NOT_OK(
      it->second->CreateIndex(stmt.index_name, stmt.columns, stmt.unique));
  return ResultSet{};
}

Result<ResultSet> Database::ExecuteCreateView(const CreateViewStmt& stmt) {
  ddl_version_.fetch_add(1, std::memory_order_release);
  std::string key = CatalogKey(stmt.name);
  if (tables_.count(key) > 0 || views_.count(key) > 0) {
    return Status::AlreadyExists("relation " + stmt.name + " already exists");
  }
  Result<std::vector<ColumnDef>> columns =
      DeriveSelectColumns(this, *stmt.select);
  if (!columns.ok()) return columns.status();
  ViewDef def;
  def.select = stmt.select;
  def.select_text = stmt.select_text;
  def.derived_schema.name = stmt.name;
  def.derived_schema.columns = std::move(*columns);
  views_.emplace(key, std::move(def));
  return ResultSet{};
}

Result<ResultSet> Database::ExecuteDropTable(const DropTableStmt& stmt) {
  ddl_version_.fetch_add(1, std::memory_order_release);
  std::string key = CatalogKey(stmt.table);
  if (tables_.erase(key) > 0 || views_.erase(key) > 0) return ResultSet{};
  if (stmt.if_exists) return ResultSet{};
  return Status::NotFound("unknown relation: " + stmt.table);
}

Status Database::CheckForeignKeysOnInsert(const Table& table,
                                          const Row& row) {
  for (const ForeignKey& fk : table.schema().foreign_keys) {
    auto ref_it = tables_.find(CatalogKey(fk.ref_table));
    if (ref_it == tables_.end()) continue;  // referenced table dropped
    Table* ref = ref_it->second.get();
    // NULL FK values are exempt.
    Row key;
    bool has_null = false;
    for (const std::string& c : fk.columns) {
      const Value& v = row[*table.schema().ColumnIndex(c)];
      if (v.is_null()) {
        has_null = true;
        break;
      }
      key.push_back(v);
    }
    if (has_null) continue;
    std::vector<size_t> ref_cols;
    for (const std::string& c : fk.ref_columns) {
      auto idx = ref->schema().ColumnIndex(c);
      if (!idx) return Status::Internal("dangling FK reference column");
      ref_cols.push_back(*idx);
    }
    const Index* index = ref->FindIndexOn(ref_cols);
    bool found = false;
    if (index != nullptr &&
        index->column_indexes() == ref_cols) {  // same order required
      found = index->Contains(key);
    } else {
      for (RowId rid = 0; rid < ref->slot_count() && !found; ++rid) {
        if (!ref->IsLive(rid)) continue;
        const Row& candidate = ref->GetRow(rid);
        bool match = true;
        for (size_t i = 0; i < ref_cols.size(); ++i) {
          if (candidate[ref_cols[i]] != key[i]) {
            match = false;
            break;
          }
        }
        found = match;
      }
    }
    if (!found) {
      return Status::ConstraintViolation(
          "foreign key violation: no row in " + fk.ref_table +
          " matches (" + Join(fk.columns, ", ") + ") of " +
          table.schema().name);
    }
  }
  return Status::OK();
}

Result<ResultSet> Database::ExecuteInsert(const InsertStmt& stmt,
                                          const std::vector<Value>& params) {
  DB2G_RETURN_NOT_OK(CheckAccess(stmt.table, /*write=*/true));
  auto it = tables_.find(CatalogKey(stmt.table));
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + stmt.table);
  }
  Table* table = it->second.get();
  const TableSchema& schema = table->schema();
  // Map provided columns to schema positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.columns.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      auto idx = schema.ColumnIndex(c);
      if (!idx) {
        return Status::NotFound("unknown column " + c + " in " + stmt.table);
      }
      positions.push_back(*idx);
    }
  }
  // The statement is atomic: every row is evaluated and checked before
  // one batch insert, which itself changes nothing when any row fails.
  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  Row empty;
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch for " +
                                     stmt.table);
    }
    Row row(schema.columns.size());
    for (size_t i = 0; i < exprs.size(); ++i) {
      row[positions[i]] = EvalExpr(*exprs[i], empty, &params);
    }
    DB2G_RETURN_NOT_OK(CheckForeignKeysOnInsert(*table, row));
    rows.push_back(std::move(row));
  }
  Result<std::vector<RowId>> rids = table->InsertBatch(std::move(rows));
  if (!rids.ok()) return rids.status();
  if (in_transaction_) {
    for (RowId rid : *rids) {
      LogUndo({UndoRecord::Kind::kInsert, CatalogKey(stmt.table), rid, {}});
    }
  }
  ResultSet result;
  result.affected = static_cast<int64_t>(rids->size());
  table->PublishColumnStats();
  return result;
}

Result<ResultSet> Database::ExecuteUpdate(const UpdateStmt& stmt,
                                          const std::vector<Value>& params) {
  DB2G_RETURN_NOT_OK(CheckAccess(stmt.table, /*write=*/true));
  auto it = tables_.find(CatalogKey(stmt.table));
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + stmt.table);
  }
  Table* table = it->second.get();
  const TableSchema& schema = table->schema();

  Scope scope;
  scope.AddTable(stmt.table, schema.ColumnNames());
  std::unique_ptr<Expr> where;
  if (stmt.where) {
    where = stmt.where->Clone();
    DB2G_RETURN_NOT_OK(BindExpr(where.get(), scope));
  }
  std::vector<std::pair<size_t, std::unique_ptr<Expr>>> assignments;
  for (const auto& [column, expr] : stmt.assignments) {
    auto idx = schema.ColumnIndex(column);
    if (!idx) {
      return Status::NotFound("unknown column " + column + " in " +
                              stmt.table);
    }
    std::unique_ptr<Expr> bound = expr->Clone();
    DB2G_RETURN_NOT_OK(BindExpr(bound.get(), scope));
    assignments.emplace_back(*idx, std::move(bound));
  }

  ResultSet result;
  std::vector<RowId> targets = FindTargetRows(*table, stmt.table, where.get(),
                                              &params, &result.exec);
  for (RowId rid : targets) {
    Row row = table->GetRow(rid);
    Row updated = row;
    for (const auto& [idx, expr] : assignments) {
      updated[idx] = EvalExpr(*expr, row, &params);
    }
    Result<Row> before = table->Update(rid, std::move(updated));
    if (!before.ok()) return before.status();
    if (in_transaction_) {
      LogUndo({UndoRecord::Kind::kUpdate, CatalogKey(stmt.table), rid,
               std::move(*before)});
    }
    ++result.affected;
  }
  table->PublishColumnStats();
  return result;
}

Result<ResultSet> Database::ExecuteDelete(const DeleteStmt& stmt,
                                          const std::vector<Value>& params) {
  DB2G_RETURN_NOT_OK(CheckAccess(stmt.table, /*write=*/true));
  auto it = tables_.find(CatalogKey(stmt.table));
  if (it == tables_.end()) {
    return Status::NotFound("unknown table: " + stmt.table);
  }
  Table* table = it->second.get();
  Scope scope;
  scope.AddTable(stmt.table, table->schema().ColumnNames());
  std::unique_ptr<Expr> where;
  if (stmt.where) {
    where = stmt.where->Clone();
    DB2G_RETURN_NOT_OK(BindExpr(where.get(), scope));
  }
  ResultSet result;
  std::vector<RowId> targets = FindTargetRows(*table, stmt.table, where.get(),
                                              &params, &result.exec);
  for (RowId rid : targets) {
    Result<Row> image = table->Delete(rid);
    if (!image.ok()) return image.status();
    if (in_transaction_) {
      LogUndo({UndoRecord::Kind::kDelete, CatalogKey(stmt.table), rid,
               std::move(*image)});
    }
    ++result.affected;
  }
  table->PublishColumnStats();
  return result;
}

void Database::LogUndo(UndoRecord record) {
  undo_log_.push_back(std::move(record));
}

void Database::RollbackLocked() {
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    auto table_it = tables_.find(it->table);
    if (table_it == tables_.end()) continue;  // table dropped mid-txn
    Table* table = table_it->second.get();
    switch (it->kind) {
      case UndoRecord::Kind::kInsert:
        table->EraseSlot(it->rid);
        break;
      case UndoRecord::Kind::kDelete:
        table->RestoreSlot(it->rid, std::move(it->before));
        break;
      case UndoRecord::Kind::kUpdate:
        (void)table->Update(it->rid, std::move(it->before));
        break;
    }
  }
  undo_log_.clear();
}

std::vector<std::string> Database::TableNames() const {
  ReadLock lock(this, &mutex_);
  std::vector<std::string> names;
  for (const auto& [key, table] : tables_) {
    (void)key;
    names.push_back(table->schema().name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> Database::ViewNames() const {
  ReadLock lock(this, &mutex_);
  std::vector<std::string> names;
  for (const auto& [key, view] : views_) {
    (void)key;
    names.push_back(view.derived_schema.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

const TableSchema* Database::GetSchema(const std::string& name) const {
  auto it = tables_.find(CatalogKey(name));
  if (it != tables_.end()) return &it->second->schema();
  auto vit = views_.find(CatalogKey(name));
  if (vit != views_.end()) return &vit->second.derived_schema;
  auto vtit = virtual_tables_.find(CatalogKey(name));
  if (vtit != virtual_tables_.end()) return &vtit->second.schema;
  return nullptr;
}

bool Database::HasRelation(const std::string& name) const {
  return GetSchema(name) != nullptr;
}

bool Database::IsView(const std::string& name) const {
  return views_.count(CatalogKey(name)) > 0;
}

Table* Database::GetTable(const std::string& name) {
  auto it = tables_.find(CatalogKey(name));
  return it != tables_.end() ? it->second.get() : nullptr;
}

const Table* Database::GetTable(const std::string& name) const {
  auto it = tables_.find(CatalogKey(name));
  return it != tables_.end() ? it->second.get() : nullptr;
}

void Database::RegisterTableFunction(const std::string& name,
                                     TableFunction fn) {
  WriteLock lock(&mutex_);
  table_functions_[CatalogKey(name)] = std::move(fn);
}

const Database::TableFunction* Database::FindTableFunction(
    const std::string& name) const {
  auto it = table_functions_.find(CatalogKey(name));
  return it != table_functions_.end() ? &it->second : nullptr;
}

void Database::RegisterVirtualTable(VirtualTableDef def) {
  WriteLock lock(&mutex_);
  virtual_tables_[CatalogKey(def.schema.name)] = std::move(def);
}

const VirtualTableDef* Database::FindVirtualTable(
    const std::string& name) const {
  auto it = virtual_tables_.find(CatalogKey(name));
  return it != virtual_tables_.end() ? &it->second : nullptr;
}

std::vector<std::string> Database::VirtualTableNames() const {
  ReadLock lock(this, &mutex_);
  std::vector<std::string> names;
  for (const auto& [key, def] : virtual_tables_) {
    (void)key;
    names.push_back(def.schema.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t Database::ApproxBytes() const {
  ReadLock lock(this, &mutex_);
  size_t bytes = 0;
  for (const auto& [key, table] : tables_) {
    (void)key;
    bytes += table->ApproxBytes();
  }
  return bytes;
}

size_t Database::ApproxDiskBytes() const {
  ReadLock lock(this, &mutex_);
  size_t bytes = 0;
  for (const auto& [key, table] : tables_) {
    (void)key;
    bytes += table->ApproxDiskBytes();
  }
  return bytes;
}

}  // namespace db2graph::sql
