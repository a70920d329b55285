// Copyright (c) 2026 The db2graph-repro Authors.
//
// The Gremlin Server analog (paper Section 3: TinkerPop "provides ... a
// service for remotely executing Gremlin scripts, called Gremlin Server";
// Section 8 ran all three systems "in server mode and responding to
// requests from clients"). This is the in-process equivalent: a worker
// pool executing submitted scripts against one Db2 Graph, with TinkerPop-
// style *sessions* — a sessioned client keeps its script variables alive
// across requests, a sessionless request runs with a fresh environment.
//
// Requests may carry bind-variable values (Gremlin Server's parameterized
// scripts): the script text stays constant across requests, so it hits
// the graph's compiled-plan cache, and the bindings supply the ids.
//
// Session serialization is queue-based, not lock-based: a session admits
// one request into the worker queue at a time and parks the rest on the
// session's pending queue; completion promotes the next. Workers
// therefore never block holding a session lock — a slow session occupies
// at most the one worker actually executing its request, instead of
// pinning every worker that happened to pop one of its requests.
//
// Observability: the service keeps its queue depth in a registry gauge,
// per-request latency in a registry histogram, and request/session counts
// in registry counters (names below), so a process exporter sees them
// alongside every other subsystem.
//
// Admission control (the workload governor's front door): the wait queue
// is bounded. A submit that would push the backlog past max_queue_depth
// is shed immediately — the future fails with kOverloaded (and a
// retry-after hint in the message) instead of parking an unbounded
// backlog, and governor.shed counts it. Options can also impose default
// per-request limits (deadline, row and memory budgets); Shutdown()
// fires a shared cancel token so in-flight queries stop cooperatively
// instead of being waited out.

#ifndef DB2GRAPH_CORE_GREMLIN_SERVICE_H_
#define DB2GRAPH_CORE_GREMLIN_SERVICE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/db2graph.h"
#include "gremlin/interpreter.h"

namespace db2graph::core {

class GremlinService {
 public:
  using Response = Result<std::vector<gremlin::Traverser>>;

  /// Registry metric names the service maintains.
  static constexpr const char* kQueueDepthGauge =
      "gremlin_service.queue_depth";
  static constexpr const char* kRequestLatencyHistogram =
      "gremlin_service.request_micros";
  static constexpr const char* kRequestsCounter =
      "gremlin_service.requests";
  static constexpr const char* kSessionsCounter =
      "gremlin_service.sessions_opened";

  struct Options {
    /// Executor threads — the service's max concurrency.
    int workers = 4;
    /// Bound on accepted-but-not-executing requests (worker queue plus
    /// parked session requests). A submit past the bound is shed with
    /// kOverloaded. 0 = 4x workers; negative = unbounded (pre-governor
    /// behavior).
    int max_queue_depth = 0;
    /// Execution tuning stamped on every request's ExecOptions::config
    /// (e.g. ExecConfig().parallelism(4) gives each request intra-query
    /// parallel scans on top of the service's inter-query worker pool;
    /// ExecConfig().timeout_ms(500) gives each one a deadline). Unset
    /// fields inherit session / process defaults as usual.
    ExecConfig exec;

    /// n workers with an unbounded queue, for callers that batch-submit
    /// far ahead of the workers (load generators, tests).
    static Options WithWorkers(int n) {
      Options o;
      o.workers = n;
      o.max_queue_depth = -1;
      return o;
    }
  };

  /// Starts `options.workers` executor threads over `graph` (not owned;
  /// must outlive the service).
  GremlinService(Db2Graph* graph, const Options& options);
  ~GremlinService();

  GremlinService(const GremlinService&) = delete;
  GremlinService& operator=(const GremlinService&) = delete;

  /// Submits a sessionless request: the script runs with an empty
  /// variable environment (plus `bindings`, when given). After Shutdown()
  /// the future fails immediately with Status::Unavailable.
  std::future<Response> Submit(std::string script);
  std::future<Response> Submit(std::string script,
                               gremlin::Environment bindings);

  /// Submits within a session: the session's variable bindings persist
  /// across requests (created on first use). Requests of one session are
  /// serialized in submission order, as Gremlin Server guarantees; bind
  /// values are installed into the session environment before the script
  /// runs.
  std::future<Response> SubmitSession(const std::string& session_id,
                                      std::string script);
  std::future<Response> SubmitSession(const std::string& session_id,
                                      std::string script,
                                      gremlin::Environment bindings);

  /// Drops a session and its bindings; requests of the session still
  /// awaiting their turn fail with Status::Unavailable.
  void CloseSession(const std::string& session_id);

  /// Stops accepting requests, cancels in-flight queries through the
  /// shared governor token (they fail with kCancelled at their next
  /// cooperative check instead of running to completion), drains the
  /// workers, and fails anything still queued with Status::Unavailable.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// Cancels the running query with this id (sysmon.active_queries shows
  /// ids); it fails with kCancelled at its next cooperative check. False
  /// = no such query is active.
  bool KillQuery(uint64_t id, const std::string& reason = {});

  /// Requests shed with kOverloaded by the admission gate.
  uint64_t shed() const { return shed_.load(); }

  /// Requests executed so far.
  uint64_t completed() const { return completed_.load(); }

  /// Requests accepted but not yet picked up by a worker (including
  /// sessioned requests awaiting their turn).
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() + pending_count_;
  }

 private:
  struct Session;

  struct Request {
    std::string script;
    gremlin::Environment bindings;
    /// Set when the request is admitted to the worker queue; null while
    /// it waits on its session's pending queue (the session owns that
    /// queue — a self-reference there would leak the session).
    std::shared_ptr<Session> session;
    std::promise<Response> promise;
  };

  struct Session {
    gremlin::Environment env;
    /// Requests awaiting their turn; the head is promoted into the worker
    /// queue when the in-flight request completes.
    std::deque<Request> pending;
    /// A request of this session is queued or executing. While true, the
    /// executing worker has exclusive use of `env` — no lock needed.
    bool active = false;
  };

  void WorkerLoop();
  void FailPendingLocked(Session* session);
  /// Admission gate, called under mutex_. True = the backlog is full and
  /// the request must be shed.
  bool ShedLocked(Request* request);

  Db2Graph* graph_;
  Options options_;
  size_t max_queue_depth_ = 0;  // 0 after resolution = unbounded
  /// Fired by Shutdown(); stamped on every request's ExecOptions so
  /// in-flight executions cancel cooperatively.
  governor::CancelToken shutdown_token_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> shed_{0};
  metrics::Gauge* queue_depth_gauge_;
  metrics::Histogram* request_latency_;
  metrics::Counter* requests_total_;
  metrics::Counter* sessions_opened_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  size_t pending_count_ = 0;  // across all sessions
  bool stopping_ = false;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> workers_;
};

}  // namespace db2graph::core

#endif  // DB2GRAPH_CORE_GREMLIN_SERVICE_H_
