// Copyright (c) 2026 The db2graph-repro Authors.
//
// The SQL Dialect module (paper Section 6.1): everything Db2-facing.
// It executes the SQL the Graph Structure module generates, keeps a cache
// of pre-compiled statement templates, tracks frequent query patterns, and
// suggests indexes that would speed the translated queries up.

#ifndef DB2GRAPH_CORE_SQL_DIALECT_H_
#define DB2GRAPH_CORE_SQL_DIALECT_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sql/database.h"

namespace db2graph::core {

class SqlDialect;

/// A live streaming query handed out by SqlDialect::QueryShapedStreaming:
/// wraps the database RowStream and, when a QueryTrace is installed,
/// files the statement's SqlTraceRecord once — when the stream is
/// exhausted or closed — so a short-circuited query reports the rows it
/// actually scanned, not the full materialized cost. The record goes to
/// the span that opened the stream, even when that span is paused by
/// then.
class DialectRowStream : public sql::RowSource {
 public:
  ~DialectRowStream() override;
  bool Next(sql::RowBlock* out) override;
  void Close() override;

  const Status& status() const { return stream_->status(); }

 private:
  friend class SqlDialect;
  DialectRowStream(std::unique_ptr<sql::RowStream> stream, QueryTrace* trace,
                   int span, SqlTraceRecord record, uint64_t start_micros);
  void FileRecord();

  std::unique_ptr<sql::RowStream> stream_;
  QueryTrace* trace_;  // nullptr when untraced
  int span_;           // issuing span (CurrentTraceSpan at open)
  SqlTraceRecord record_;
  uint64_t start_micros_;
  bool filed_ = false;
};

class SqlDialect {
 public:
  struct Options {
    /// A (table, predicate-columns) pattern seen at least this many times
    /// is considered frequent and produces an index suggestion when no
    /// matching index exists.
    uint64_t frequent_pattern_threshold = 16;
  };

  /// Registry metric names for the SQL-skeleton cache.
  static constexpr const char* kSkeletonHitsCounter =
      "sql_dialect.skeleton_hits";
  static constexpr const char* kSkeletonMissesCounter =
      "sql_dialect.skeleton_misses";

  explicit SqlDialect(sql::Database* db) : SqlDialect(db, Options()) {}
  SqlDialect(sql::Database* db, Options options)
      : db_(db),
        options_(options),
        registry_skeleton_hits_(metrics::MetricsRegistry::Global().GetCounter(
            kSkeletonHitsCounter)),
        registry_skeleton_misses_(
            metrics::MetricsRegistry::Global().GetCounter(
                kSkeletonMissesCounter)) {}

  sql::Database* db() const { return db_; }

  /// Executes a query identified by its *shape*: `build_sql` runs only
  /// the first time `shape_key` is seen and the produced SQL text is
  /// cached, so steady-state execution of a repeated query shape skips
  /// string assembly entirely — per-execution values arrive through
  /// `params`. The statement is prepared on first use and its compiled
  /// template reused afterwards (the pre-compiled SQL template cache of
  /// Section 6.1). Callers must guarantee the key uniquely determines the
  /// text `build_sql` would produce.
  Result<sql::ResultSet> QueryShaped(
      const std::string& shape_key,
      const std::function<std::string()>& build_sql,
      const std::vector<Value>& params);

  /// Streaming variant of QueryShaped(): returns a live block stream
  /// instead of a materialized result. See sql::RowStream for
  /// lock/lifetime rules.
  Result<std::unique_ptr<DialectRowStream>> QueryShapedStreaming(
      const std::string& shape_key,
      const std::function<std::string()>& build_sql,
      const std::vector<Value>& params,
      size_t block_rows = sql::kDefaultBlockRows);

  /// Records that a query against `table` constrained these columns.
  void RecordPattern(const std::string& table,
                     std::vector<std::string> predicate_columns);

  /// Renders a parameterized statement with '?' placeholders substituted
  /// by SQL literals (trace/EXPLAIN display; never executed).
  static std::string RenderSql(const std::string& sql,
                               const std::vector<Value>& params);

  /// Index advisor output: frequent patterns that have no backing index.
  struct IndexSuggestion {
    std::string table;
    std::vector<std::string> columns;
    uint64_t occurrences = 0;
    /// CREATE INDEX statement implementing the suggestion.
    std::string ddl;
  };
  std::vector<IndexSuggestion> SuggestIndexes() const;

  // -- tracing ------------------------------------------------------------
  /// When enabled, records every executed statement with its parameters
  /// substituted (tests assert the exact SQL the graph layer generates).
  void EnableTrace() {
    std::lock_guard<std::mutex> lock(mutex_);
    trace_enabled_ = true;
    trace_.clear();
  }
  /// Returns and clears the trace.
  std::vector<std::string> TakeTrace() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out = std::move(trace_);
    trace_.clear();
    return out;
  }

  uint64_t queries_issued() const { return queries_issued_.load(); }
  uint64_t template_cache_hits() const { return cache_hits_.load(); }
  uint64_t template_cache_misses() const { return cache_misses_.load(); }
  uint64_t skeleton_cache_hits() const { return skeleton_hits_.load(); }
  uint64_t skeleton_cache_misses() const { return skeleton_misses_.load(); }
  void ResetCounters() {
    queries_issued_ = 0;
    cache_hits_ = 0;
    cache_misses_ = 0;
    skeleton_hits_ = 0;
    skeleton_misses_ = 0;
  }

 private:
  /// One cached statement shape: the SQL text generated for it (the
  /// skeleton) and that text's prepared statement, which keeps its
  /// compiled section; empty while the text fails to prepare.
  struct Template {
    std::string sql;
    std::optional<sql::PreparedStatement> stmt;
  };

  /// Where an issued statement's trace record goes; trace is nullptr
  /// when no QueryTrace is installed.
  struct Issued {
    QueryTrace* trace = nullptr;
    int span = -1;
    uint64_t start_micros = 0;
  };

  /// The template for `shape_key`: one lock and one hash on a hit. On
  /// first sight `build_sql` generates the text, which is cached and
  /// prepared (a skeleton and template miss). A text that fails to
  /// prepare stays cached without a statement and `*prepared` gets the
  /// error; each later call is a skeleton hit and a template miss that
  /// prepares it again. Counts the statement, appends it to the text
  /// trace when enabled, and captures the issuing trace span and start
  /// time into `issued`. Entries are never evicted, so the reference
  /// stays valid for the dialect's lifetime.
  const Template& Lookup(const std::string& shape_key,
                         const std::function<std::string()>& build_sql,
                         const std::vector<Value>& params, Issued* issued,
                         Status* prepared);

  sql::Database* db_;
  Options options_;

  mutable std::mutex mutex_;
  /// shape key -> generated SQL text (the skeleton) and its statement.
  std::unordered_map<std::string, Template> templates_;
  std::map<std::pair<std::string, std::vector<std::string>>, uint64_t>
      pattern_counts_;

  std::atomic<uint64_t> queries_issued_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> skeleton_hits_{0};
  std::atomic<uint64_t> skeleton_misses_{0};
  metrics::Counter* registry_skeleton_hits_;
  metrics::Counter* registry_skeleton_misses_;

  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_SQL_DIALECT_H_
