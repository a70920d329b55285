// Copyright (c) 2026 The db2graph-repro Authors.
//
// The workload governor (Db2's Workload Manager, scaled down): per-query
// deadlines, cooperative cancellation, and memory / result-row budgets,
// enforced at the same block boundaries that make execution incremental.
//
// One QueryContext exists per governed execution, created by
// Db2Graph::Execute from the limits of its resolved ExecConfig and
// installed thread-locally — the same propagation model as QueryTrace:
// deep layers (the SQL operator tree, the interpreter's pull cursor, the
// provider's fan-out producers) call CheckCurrent() at each block
// boundary without any signature plumbing, and fan-out pool workers
// inherit the context through ScopedQueryContext exactly like
// ScopedTrace.
//
// Violations latch: the first failed check fixes the context's terminal
// status (kTimeout / kCancelled / kResourceExhausted) and every later
// check returns it, so a query unwinding through many operators reports
// one coherent reason.
//
// Zero-cost-when-ungoverned contract: CheckCurrent() on a thread with no
// installed context is one thread-local read and a null check.

#ifndef DB2GRAPH_COMMON_WORKLOAD_GOVERNOR_H_
#define DB2GRAPH_COMMON_WORKLOAD_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace db2graph::governor {

/// Registry metric names the governor maintains (termination reasons as
/// counters, surfaced through sysmon.metrics).
inline constexpr const char* kTimeoutsCounter = "governor.timeouts";
inline constexpr const char* kCancelsCounter = "governor.cancels";
inline constexpr const char* kShedCounter = "governor.shed";
inline constexpr const char* kResourceExhaustedCounter =
    "governor.resource_exhausted";

/// A shared cancellation flag, cheap to copy; every copy refers to the
/// same state. A default-constructed token is detached (never fires) —
/// ExecOptions carries one by value without forcing an allocation on
/// callers that never cancel.
class CancelToken {
 public:
  CancelToken() = default;

  /// A live token that Cancel() can fire.
  static CancelToken Make();

  bool valid() const { return state_ != nullptr; }
  /// Fires the token; the first caller's reason wins. No-op when detached.
  void Cancel(std::string reason);
  bool cancelled() const;
  /// The reason passed to Cancel(); empty before it fires.
  std::string reason() const;

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::string reason;
  };
  std::shared_ptr<State> state_;
};

/// Effective limits of one execution; 0 = unlimited for every field.
struct GovernorLimits {
  int64_t timeout_ms = 0;
  int64_t max_result_rows = 0;
  int64_t max_memory_bytes = 0;
  bool any() const {
    return timeout_ms > 0 || max_result_rows > 0 || max_memory_bytes > 0;
  }
};

/// The per-query governance state. Thread-safe: fan-out producers,
/// KillQuery callers, and sysmon.active_queries all touch a running
/// query's context concurrently.
class QueryContext {
 public:
  QueryContext(std::string script, GovernorLimits limits,
               CancelToken external);

  uint64_t id() const { return id_; }
  const std::string& script() const { return script_; }
  const GovernorLimits& limits() const { return limits_; }
  uint64_t start_micros() const { return start_micros_; }
  /// Wall time since the context was created (monotonic clock).
  uint64_t elapsed_micros() const;

  /// The cooperative check, called at block boundaries. Returns (and
  /// latches) kCancelled when this query's token — its own or the
  /// external one from ExecOptions — has fired, kTimeout when the
  /// deadline passed, or a previously latched violation.
  Status Check();

  /// Cancels this query; Check() returns kCancelled from now on.
  void Cancel(std::string reason);

  /// Memory budget accounting (approximate bytes of retained traverser /
  /// queue-block state). Charge latches kResourceExhausted when the
  /// running total crosses the budget.
  Status ChargeMemory(uint64_t bytes);
  void ReleaseMemory(uint64_t bytes);
  uint64_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  uint64_t memory_peak() const {
    return memory_peak_.load(std::memory_order_relaxed);
  }

  /// Result-row budget: `rows` is the size a traverser stream just
  /// reached; exceeding max_result_rows latches kResourceExhausted.
  Status CheckResultRows(uint64_t rows);

  /// Monotonic progress counter shown by sysmon.active_queries.
  void AddRowsProduced(uint64_t n) {
    rows_produced_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t rows_produced() const {
    return rows_produced_.load(std::memory_order_relaxed);
  }

 private:
  /// Latches `code` as the terminal status (first violation wins) and
  /// returns the latched status.
  Status Latch(StatusCode code, std::string message);

  const uint64_t id_;
  const std::string script_;
  const GovernorLimits limits_;
  const CancelToken external_;
  CancelToken own_;
  const uint64_t start_micros_;
  /// Deadline in monotonic micros; 0 = none.
  const uint64_t deadline_micros_;

  /// StatusCode of the latched violation; kOk while healthy. The message
  /// lives behind the mutex (written once, by the latching thread).
  std::atomic<int> violation_{static_cast<int>(StatusCode::kOk)};
  mutable std::mutex mutex_;
  std::string violation_message_;

  std::atomic<uint64_t> memory_used_{0};
  std::atomic<uint64_t> memory_peak_{0};
  std::atomic<uint64_t> rows_produced_{0};
};

/// The thread's installed context; nullptr when the execution is
/// ungoverned (no limits and no token).
QueryContext* CurrentQueryContext();

/// Cooperative check against the installed context; OK when ungoverned.
/// This is THE call sites use — one TLS read when no governor is active.
Status CheckCurrent();

/// RAII installer; saves and restores the previous thread-local context,
/// so fan-out workers and nested graphQuery interpreters compose (same
/// contract as ScopedTrace). Installing nullptr is allowed and makes the
/// scope ungoverned.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* ctx);
  ~ScopedQueryContext();
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* previous_;
};

/// Process-wide registry of running governed queries: the backing store
/// of sysmon.active_queries and the lookup KillQuery goes through.
class ActiveQueryRegistry {
 public:
  static ActiveQueryRegistry& Global();

  void Register(std::shared_ptr<QueryContext> ctx);
  void Unregister(uint64_t id);
  /// Cancels the query; false when no such query is running.
  bool Kill(uint64_t id, std::string reason);
  /// Running queries, id order.
  std::vector<std::shared_ptr<QueryContext>> Snapshot() const;
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<QueryContext>> active_;
};

/// Registers a query in the active registry and installs it on this
/// thread for the scope's duration; unregisters on destruction.
class ScopedActiveQuery {
 public:
  explicit ScopedActiveQuery(std::shared_ptr<QueryContext> ctx);
  ~ScopedActiveQuery();
  ScopedActiveQuery(const ScopedActiveQuery&) = delete;
  ScopedActiveQuery& operator=(const ScopedActiveQuery&) = delete;

 private:
  std::shared_ptr<QueryContext> ctx_;
  ScopedQueryContext scope_;
};

/// The `ok|error|timeout|cancelled|overloaded|resource_exhausted` label
/// recorded in sysmon.query_log and the slow-query log.
const char* TerminationReason(const Status& status);

/// Bumps the governor.* counter matching a terminal status; no-op for OK
/// and plain errors (shed is counted at the admission gate, not here).
void CountTermination(const Status& status);

/// Approximate retained bytes per buffered traverser / element, used by
/// the block-boundary memory accounting. Deliberately coarse: the budget
/// bounds order-of-magnitude blowups, not exact allocations.
inline constexpr uint64_t kApproxTraverserBytes = 192;
inline constexpr uint64_t kApproxElementBytes = 256;

}  // namespace db2graph::governor

#endif  // DB2GRAPH_COMMON_WORKLOAD_GOVERNOR_H_
