// Copyright (c) 2026 The db2graph-repro Authors.
//
// Per-query execution tracing for the Gremlin -> SQL pipeline. A
// QueryTrace is installed for the duration of one traced query (thread-
// locally, via ScopedTrace) and every layer underneath — strategy
// application, the interpreter's step loop, the provider's planner, the
// SQL Dialect — records into it through CurrentTrace().
//
// Zero-cost-when-disabled contract: the untraced hot path performs one
// thread-local pointer read and a null check per potential record site;
// no mutex is touched and nothing allocates. Only when a trace is
// installed do the record methods lock the trace's internal mutex (which
// is required anyway: parallel fan-out workers record into the same
// query's trace concurrently).

#ifndef DB2GRAPH_COMMON_TRACE_H_
#define DB2GRAPH_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace db2graph {

/// Injectable wall-clock source so tests can pin span timings.
class TraceClock {
 public:
  virtual ~TraceClock() = default;
  /// Monotonic microseconds.
  virtual uint64_t NowMicros() const;
  /// The process default (steady_clock-backed) instance.
  static TraceClock* Default();
};

/// One SQL statement executed (or, for EXPLAIN, predicted) on behalf of a
/// traced step.
struct SqlTraceRecord {
  std::string table;
  std::string sql;  // parameters substituted
  /// Wall stamp (trace-clock micros) when the statement started; filled by
  /// RecordSql as now-minus-micros when the recorder left it 0. Feeds the
  /// Chrome-trace exporter's event timeline.
  uint64_t start_micros = 0;
  /// Small per-thread integer identifying the recording thread (fan-out
  /// workers show as separate Chrome-trace rows); 0 = stamped by RecordSql.
  int tid = 0;
  /// Chosen access path: "index", "range", "scan", "mixed", "none" at
  /// runtime; "index probe" / "full scan" / "full scan+filter" predictions
  /// from EXPLAIN.
  std::string access_path;
  /// Execution mode attribution: "vectorized", "scalar", "mixed", or
  /// "none" (ExecInfo::ExecMode). Empty for EXPLAIN predictions.
  std::string exec_mode;
  /// Rows the statement actually pulled from storage (post-short-circuit:
  /// a pushed-down LIMIT stops the scan early and this reflects that).
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  /// Rows the statement emitted to its consumer (ExecInfo::rows_emitted).
  uint64_t rows_emitted = 0;
  /// EXPLAIN only: table cardinality bound on the rows the statement may
  /// touch (0 when unknown).
  uint64_t rows_estimated = 0;
  uint64_t micros = 0;
};

/// One compile-time strategy application that changed the plan.
struct StrategyRewrite {
  std::string strategy;
  std::string before;  // Traversal::ToString() prior to the pass
  std::string after;
};

/// One step of the traversal plan as executed, with everything the layers
/// below reported while it was the innermost open step.
struct StepTraceSpan {
  int index = 0;  // creation order within the trace
  int depth = 0;  // nesting depth (repeat bodies, sub-traversals)
  std::string step;    // step kind name
  std::string detail;  // Step::ToString()
  /// Wall stamp (trace-clock micros) of BeginStep — unlike the per-window
  /// start the timing machinery keeps, this never moves on Resume.
  uint64_t start_micros = 0;
  /// TraceTid() of the thread that opened the span.
  int tid = 0;
  uint64_t in_count = 0;
  uint64_t out_count = 0;
  /// Active (non-paused) time only; a streaming step accumulates across
  /// its Resume/Pause windows.
  uint64_t micros = 0;
  /// Blocks this step pulled/processed in streaming execution (0 when the
  /// step ran in one materialized pass).
  uint64_t blocks = 0;
  std::vector<std::string> tables_consulted;
  std::vector<std::string> tables_pruned;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t fanout_batches = 0;
  uint64_t fanout_tasks = 0;
  uint64_t shortcut_vertices = 0;
  std::vector<SqlTraceRecord> statements;
};

/// The trace of one query, from strategy application to result delivery.
/// All mutation methods are internally synchronized.
class QueryTrace {
 public:
  explicit QueryTrace(TraceClock* clock = TraceClock::Default());

  TraceClock* clock() const { return clock_; }

  void SetScript(std::string script);
  const std::string& script() const { return script_; }

  /// Where the executed plan came from: "cached" (plan-cache hit) or
  /// "compiled" (parsed + optimized for this execution). Rendered as the
  /// `plan:` line of RenderText() and the "plan" field of ToJson().
  void SetPlanSource(std::string source);
  std::string plan_source() const;

  /// How the execution ended ("ok", "timeout", "cancelled", ...; see
  /// governor::TerminationReason). Rendered as the `termination:` line of
  /// RenderText() and the "termination" field of ToJson() — a truncated
  /// trace is unambiguous about why it stops where it does.
  void SetTermination(std::string reason);
  std::string termination() const;

  /// Opens a step span (interpreter thread only); returns its id for
  /// EndStep. Spans nest: records arriving from lower layers attach to the
  /// most recently opened, still-open span.
  int BeginStep(std::string step, std::string detail, uint64_t in_count);
  void EndStep(int span_id, uint64_t out_count);

  /// Streaming execution processes a step one block at a time, interleaved
  /// with other steps of the same segment. Pause closes the span's timing
  /// window and pops it from the open stack (so records from other steps
  /// don't attach to it); Resume reopens it and restarts the clock. A
  /// paused span's micros accumulate over its active windows only. EndStep
  /// works on both paused and running spans.
  void PauseStep(int span_id);
  void ResumeStep(int span_id);

  /// Attributes `n` processed blocks to the innermost open span.
  void AddBlocks(uint64_t n);

  /// Adds to a span's input-traverser count. Streaming steps learn their
  /// input size one block at a time, so BeginStep opens them with 0 and
  /// this accumulates per block (materialized steps pass the full count to
  /// BeginStep and never call it).
  void AddStepInput(int span_id, uint64_t n);

  void AddRewrite(std::string strategy, std::string before,
                  std::string after);

  /// Id of the innermost open span; -1 when none is open.
  int InnermostOpenSpan() const;

  // Record sites for the layers below; each attaches to the innermost
  // open span (or is dropped when no span is open — e.g. SQL issued
  // outside any traversal step). A statement recorded with `span_id` >= 0
  // attaches to that span whether or not it is still open: a streamed
  // statement files its record when it ends, and by then the step that
  // issued it may be paused (see CurrentTraceSpan()).
  void RecordSql(SqlTraceRecord record, int span_id = -1);
  void AddTableConsulted(std::string table);
  void AddTablePruned(std::string table);
  void AddCacheHit();
  void AddCacheMiss();
  void AddFanout(uint64_t batches, uint64_t tasks);
  void AddShortcutVertices(uint64_t n);

  /// Stamps the total query wall time.
  void Finish(uint64_t total_micros);
  uint64_t total_micros() const;

  // -- inspection ---------------------------------------------------------
  std::vector<StepTraceSpan> Spans() const;
  std::vector<StrategyRewrite> Rewrites() const;

  /// Sums of rows_scanned / rows_emitted over every SQL statement in the
  /// trace (the query log's row counts for a traced execution).
  struct RowTotals {
    uint64_t rows_scanned = 0;
    uint64_t rows_emitted = 0;
  };
  RowTotals SqlRowTotals() const;

  /// Human-readable rendering (indented by span depth).
  std::string RenderText() const;
  /// Machine-readable rendering: {"script", "total_micros", "strategies",
  /// "steps": [...]}.
  Json ToJson() const;
  /// chrome://tracing / Perfetto JSON (Trace Event Format): one complete
  /// ("X") event per step span and per SQL statement, laid out on the
  /// recording thread's row — fan-out workers and barrier drains render as
  /// a flamegraph. A streamed span's dur is its active micros, so paused
  /// windows are collapsed out of the bar. Dump with .Dump(0) and load the
  /// file directly in the tracing UI.
  Json ToChromeTrace() const;

 private:
  StepTraceSpan* InnermostOpenLocked();

  TraceClock* clock_;
  mutable std::mutex mutex_;
  std::string script_;
  std::string plan_source_;
  std::string termination_;
  uint64_t total_micros_ = 0;
  std::vector<StrategyRewrite> rewrites_;
  std::deque<StepTraceSpan> spans_;       // deque: stable element addresses
  std::vector<uint64_t> span_starts_;     // per span, current window start
  std::vector<bool> span_paused_;         // per span, paused right now?
  std::vector<int> open_;                 // stack of open span ids
};

/// The trace installed on this thread; nullptr when the current query is
/// untraced (the common case).
QueryTrace* CurrentTrace();

/// The span SQL issued on this thread belongs to: the span the enclosing
/// ScopedTrace pinned (fan-out workers run on behalf of the consumer's
/// step), else the current trace's innermost open span; -1 when untraced
/// or no span is open.
int CurrentTraceSpan();

/// Small, stable integer identifying the calling thread (1, 2, 3, ... in
/// first-use order) — friendlier than std::thread::id for trace output.
int TraceTid();

/// RAII installer; saves and restores the previous thread-local trace, so
/// fan-out workers (and nested graphQuery interpreters) compose. `span`
/// pins the span this thread's SQL records attach to (CurrentTraceSpan);
/// -1 leaves them to the trace's innermost open span.
class ScopedTrace {
 public:
  explicit ScopedTrace(QueryTrace* trace, int span = -1);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  QueryTrace* previous_;
  int previous_span_;
};

}  // namespace db2graph

#endif  // DB2GRAPH_COMMON_TRACE_H_
