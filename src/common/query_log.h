// Copyright (c) 2026 The db2graph-repro Authors.
//
// Process-wide ring of recently executed queries, the backing store of the
// sysmon.query_log virtual table. Every top-level SQL statement (a SELECT
// when its plan closes, drained or streamed) and every
// core::Db2Graph::ExecutePlan call files one Entry here, traced or not, so
// the engine's recent history is queryable with plain SQL (Db2's
// MON_GET_PKG_CACHE_STMT, scaled down). Recording is a mutex-guarded
// deque push; the enabled flag is a relaxed atomic read so switching the
// log off removes it from the hot path entirely.
//
// The log also holds the slow-query threshold: while the log is enabled
// and the threshold is nonzero, Gremlin executions run traced, and an
// entry whose wall time crossed the threshold carries its full trace
// (trace_json). sysmon.slow_queries is the view of those entries.

#ifndef DB2GRAPH_COMMON_QUERY_LOG_H_
#define DB2GRAPH_COMMON_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace db2graph {

class QueryLog {
 public:
  struct Entry {
    /// Monotonic sequence number (1, 2, ...) across the process.
    uint64_t id = 0;
    /// Which entry point filed it: "sql" or "gremlin".
    std::string layer;
    std::string script;
    /// "cached" (plan-cache hit) / "compiled"; empty for the SQL layer.
    std::string plan_source;
    /// ExecInfo::ExecMode(): "vectorized", "scalar", "mixed", "none".
    std::string exec_mode;
    /// ExecInfo::AccessPath(): "index", "range", "scan", "mixed", "none".
    std::string access_path;
    uint64_t rows_scanned = 0;
    uint64_t rows_emitted = 0;
    /// Intra-query parallelism: resolved degree of parallelism and number
    /// of morsels dispatched (ExecInfo::dop/morsels; 1/0 = serial).
    uint64_t dop = 1;
    uint64_t morsels = 0;
    /// Hops the multi-hop optimizer collapsed into join steps (gremlin
    /// layer only; 0 = step-at-a-time plan).
    uint64_t collapsed_hops = 0;
    uint64_t micros = 0;
    bool error = false;
    std::string error_message;
    /// How the execution ended: "ok", "error", "timeout", "cancelled",
    /// "overloaded", or "resource_exhausted" (governor terminations get
    /// their own labels so runaway-query kills are distinguishable from
    /// plain failures). See governor::TerminationReason.
    std::string reason = "ok";
    /// EXPLAIN ANALYZE rendering when the statement ran profiled.
    std::string plan;
    /// The execution's trace as JSON, set only on a Gremlin entry whose
    /// wall time crossed the slow-query threshold.
    std::string trace_json;
  };

  static constexpr size_t kDefaultCapacity = 256;

  explicit QueryLog(size_t capacity = kDefaultCapacity);
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// The process-wide instance sysmon.query_log reads.
  static QueryLog& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Slow-query threshold in milliseconds; 0 = off. Seeded from the
  /// DB2G_SLOW_QUERY_MS environment variable at construction.
  int64_t threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }
  void SetThresholdMs(int64_t ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }

  size_t capacity() const;
  /// Resizes the ring (clamped to >= 1); shrinking drops oldest entries.
  void SetCapacity(size_t capacity);

  /// Files an entry (assigning entry.id under the ring lock, so ids
  /// increase oldest-first); no-op while disabled.
  void Record(Entry entry);
  /// Oldest-first copy of the ring.
  std::vector<Entry> Entries() const;
  void Clear();

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<int64_t> threshold_ms_{0};
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  size_t capacity_;
  std::deque<Entry> entries_;
};

}  // namespace db2graph

#endif  // DB2GRAPH_COMMON_QUERY_LOG_H_
