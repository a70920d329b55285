#include "core/sql_dialect.h"

#include <algorithm>

#include "common/strings.h"
#include "common/trace.h"

namespace db2graph::core {

namespace {

// Table name between FROM "..." for trace attribution; the graph layer
// only ever generates single-table statements of that shape.
std::string TableFromSql(const std::string& sql) {
  size_t from = sql.find(" FROM \"");
  if (from == std::string::npos) return "";
  // Multi-hop join statements list several tables: FROM "A" AS e0, "B" AS
  // v1, ... — label the trace record with the whole chain, '>'-joined.
  std::string tables;
  size_t begin = from + 7;
  while (true) {
    size_t end = sql.find('"', begin);
    if (end == std::string::npos) return tables;
    if (!tables.empty()) tables += '>';
    tables += sql.substr(begin, end - begin);
    size_t next = sql.find(", \"", end);
    if (next == std::string::npos) return tables;
    // Stop at the WHERE clause: a quoted column reference there would
    // otherwise read as another table.
    size_t where = sql.find(" WHERE ", end);
    if (where != std::string::npos && where < next) return tables;
    begin = next + 3;
  }
}

// The trace record of one statement as issued: the table(s) it reads and
// its text with the parameters rendered.
SqlTraceRecord StatementRecord(const std::string& sql,
                               const std::vector<Value>& params) {
  SqlTraceRecord record;
  record.table = TableFromSql(sql);
  record.sql = SqlDialect::RenderSql(sql, params);
  return record;
}

// Completes a statement's record with how it ran — access path, mode and
// row counts, or the error (`exec` may be null then) — and files it.
void FileStatementRecord(QueryTrace* trace, int span, SqlTraceRecord record,
                         uint64_t start_micros, const Status& status,
                         const sql::ExecInfo* exec, uint64_t rows_returned) {
  record.micros = trace->clock()->NowMicros() - start_micros;
  if (status.ok()) {
    record.access_path = exec->AccessPath();
    record.exec_mode = exec->ExecMode();
    record.rows_scanned = exec->rows_scanned;
    record.rows_returned = rows_returned;
    record.rows_emitted = exec->rows_emitted;
  } else {
    record.access_path = "error: " + status.ToString();
  }
  trace->RecordSql(std::move(record), span);
}

}  // namespace

std::string SqlDialect::RenderSql(const std::string& sql,
                                  const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c == '?' && next < params.size()) {
      out += params[next++].ToSqlLiteral();
    } else {
      out += c;
    }
  }
  return out;
}

const SqlDialect::Template& SqlDialect::Lookup(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params, Issued* issued, Status* prepared) {
  queries_issued_.fetch_add(1, std::memory_order_relaxed);
  issued->trace = CurrentTrace();
  if (issued->trace != nullptr) {
    // The issuing span is captured now, not when the record is filed: a
    // stream closed early ends while every span is paused.
    issued->span = CurrentTraceSpan();
    issued->start_micros = issued->trace->clock()->NowMicros();
  }
  std::string sql;
  bool seen = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = templates_.find(shape_key);
    seen = it != templates_.end();
    if (seen) {
      if (trace_enabled_) trace_.push_back(RenderSql(it->second.sql, params));
      skeleton_hits_.fetch_add(1, std::memory_order_relaxed);
      registry_skeleton_hits_->fetch_add(1);
      if (it->second.stmt.has_value()) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      sql = it->second.sql;  // its text failed to prepare: try again
    } else {
      skeleton_misses_.fetch_add(1, std::memory_order_relaxed);
      registry_skeleton_misses_->fetch_add(1);
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (!seen) sql = build_sql();
  Result<sql::PreparedStatement> stmt = db_->Prepare(sql);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!seen && trace_enabled_) trace_.push_back(RenderSql(sql, params));
  // A concurrent first sight may have inserted the shape already; either
  // text serves. The text stays cached even when it fails to prepare, as
  // a skeleton.
  auto [it, inserted] = templates_.try_emplace(shape_key);
  Template& entry = it->second;
  if (inserted) entry.sql = std::move(sql);
  if (!stmt.ok()) {
    *prepared = stmt.status();
  } else if (!entry.stmt.has_value()) {
    entry.stmt = std::move(*stmt);
  }
  return entry;
}

Result<sql::ResultSet> SqlDialect::QueryShaped(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params) {
  Issued issued;
  Status prepared;
  const Template& tmpl =
      Lookup(shape_key, build_sql, params, &issued, &prepared);
  // Execute outside the cache lock: statement execution takes database
  // locks and may run long.
  Result<sql::ResultSet> result = prepared.ok()
                                      ? tmpl.stmt->Execute(params)
                                      : Result<sql::ResultSet>(prepared);
  if (issued.trace != nullptr) {
    FileStatementRecord(issued.trace, issued.span,
                        StatementRecord(tmpl.sql, params), issued.start_micros,
                        result.status(), result.ok() ? &result->exec : nullptr,
                        result.ok() ? result->rows.size() : 0);
  }
  return result;
}

DialectRowStream::DialectRowStream(std::unique_ptr<sql::RowStream> stream,
                                   QueryTrace* trace, int span,
                                   SqlTraceRecord record,
                                   uint64_t start_micros)
    : stream_(std::move(stream)),
      trace_(trace),
      span_(span),
      record_(std::move(record)),
      start_micros_(start_micros) {}

DialectRowStream::~DialectRowStream() { Close(); }

bool DialectRowStream::Next(sql::RowBlock* out) {
  bool ok = stream_->Next(out);
  if (!ok) FileRecord();  // exhausted (or failed): final counters are in
  return ok;
}

void DialectRowStream::Close() {
  FileRecord();  // file *before* releasing: Close wipes the stream's plan
  stream_->Close();
}

void DialectRowStream::FileRecord() {
  if (trace_ == nullptr || filed_) return;
  filed_ = true;
  FileStatementRecord(trace_, span_, std::move(record_), start_micros_,
                      stream_->status(), &stream_->exec(),
                      stream_->exec().rows_emitted);
}

Result<std::unique_ptr<DialectRowStream>> SqlDialect::QueryShapedStreaming(
    const std::string& shape_key,
    const std::function<std::string()>& build_sql,
    const std::vector<Value>& params, size_t block_rows) {
  Issued issued;
  Status prepared;
  const Template& tmpl =
      Lookup(shape_key, build_sql, params, &issued, &prepared);
  if (!prepared.ok()) return prepared;
  Result<std::unique_ptr<sql::RowStream>> stream =
      tmpl.stmt->ExecuteStreaming(params, block_rows);
  SqlTraceRecord record;
  if (issued.trace != nullptr) record = StatementRecord(tmpl.sql, params);
  if (!stream.ok()) {
    if (issued.trace != nullptr) {
      FileStatementRecord(issued.trace, issued.span, std::move(record),
                          issued.start_micros, stream.status(), nullptr, 0);
    }
    return stream.status();
  }
  return std::unique_ptr<DialectRowStream>(
      new DialectRowStream(std::move(*stream), issued.trace, issued.span,
                           std::move(record), issued.start_micros));
}

void SqlDialect::RecordPattern(const std::string& table,
                               std::vector<std::string> predicate_columns) {
  if (predicate_columns.empty()) return;
  // Sampled: pattern statistics do not need every query, and the map
  // update would otherwise sit on the per-query hot path.
  thread_local uint64_t counter = 0;
  if ((counter++ & 0x7) != 0) return;
  for (std::string& c : predicate_columns) c = ToLower(c);
  std::sort(predicate_columns.begin(), predicate_columns.end());
  predicate_columns.erase(
      std::unique(predicate_columns.begin(), predicate_columns.end()),
      predicate_columns.end());
  std::lock_guard<std::mutex> lock(mutex_);
  ++pattern_counts_[{ToLower(table), std::move(predicate_columns)}];
}

std::vector<SqlDialect::IndexSuggestion> SqlDialect::SuggestIndexes() const {
  std::vector<IndexSuggestion> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, count] : pattern_counts_) {
    if (count < options_.frequent_pattern_threshold) continue;
    const auto& [table, columns] = key;
    const sql::Table* base = db_->GetTable(table);
    if (base == nullptr) continue;  // views cannot be indexed
    // Resolve to column indexes; skip when an index already covers them.
    std::vector<size_t> idxs;
    bool resolvable = true;
    for (const std::string& c : columns) {
      auto idx = base->schema().ColumnIndex(c);
      if (!idx) {
        resolvable = false;
        break;
      }
      idxs.push_back(*idx);
    }
    if (!resolvable || base->FindIndexOn(idxs) != nullptr) continue;
    IndexSuggestion suggestion;
    suggestion.table = base->schema().name;
    for (size_t i : idxs) {
      suggestion.columns.push_back(base->schema().columns[i].name);
    }
    suggestion.occurrences = count;
    suggestion.ddl = "CREATE INDEX idx_" + suggestion.table + "_" +
                     Join(suggestion.columns, "_") + " ON " +
                     suggestion.table + " (" +
                     Join(suggestion.columns, ", ") + ")";
    out.push_back(std::move(suggestion));
  }
  std::sort(out.begin(), out.end(),
            [](const IndexSuggestion& a, const IndexSuggestion& b) {
              return a.occurrences > b.occurrences;
            });
  return out;
}

}  // namespace db2graph::core
