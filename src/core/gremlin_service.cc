#include "core/gremlin_service.h"

#include "common/fault_injection.h"
#include "common/trace.h"
#include "common/workload_governor.h"

namespace db2graph::core {

GremlinService::GremlinService(Db2Graph* graph, const Options& options)
    : graph_(graph),
      options_(options),
      shutdown_token_(governor::CancelToken::Make()) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue_depth == 0) {
    max_queue_depth_ = static_cast<size_t>(options_.workers) * 4;
  } else if (options_.max_queue_depth > 0) {
    max_queue_depth_ = static_cast<size_t>(options_.max_queue_depth);
  }  // negative: stays 0 = unbounded
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  queue_depth_gauge_ = registry.GetGauge(kQueueDepthGauge);
  request_latency_ = registry.GetHistogram(kRequestLatencyHistogram);
  requests_total_ = registry.GetCounter(kRequestsCounter);
  sessions_opened_ = registry.GetCounter(kSessionsCounter);
  workers_.reserve(options_.workers);
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

GremlinService::~GremlinService() { Shutdown(); }

void GremlinService::FailPendingLocked(Session* session) {
  for (Request& r : session->pending) {
    r.promise.set_value(Status::Unavailable("session closed"));
  }
  pending_count_ -= session->pending.size();
  session->pending.clear();
}

bool GremlinService::KillQuery(uint64_t id, const std::string& reason) {
  return governor::ActiveQueryRegistry::Global().Kill(
      id, reason.empty() ? "killed via GremlinService" : reason);
}

bool GremlinService::ShedLocked(Request* request) {
  if (max_queue_depth_ == 0 ||
      queue_.size() + pending_count_ < max_queue_depth_) {
    return false;
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  metrics::MetricsRegistry::Global()
      .GetCounter(governor::kShedCounter)
      ->fetch_add(1);
  request->promise.set_value(Status::Overloaded(
      "service overloaded: " +
      std::to_string(queue_.size() + pending_count_) +
      " requests already queued (bound " +
      std::to_string(max_queue_depth_) + "); retry after current load "
      "drains"));
  return true;
}

void GremlinService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;  // already shut down
    stopping_ = true;
  }
  // In-flight queries observe the shared token at their next block
  // boundary and unwind with kCancelled — shutdown waits for cooperative
  // exits, not for full traversals to run their course.
  shutdown_token_.Cancel("service shutting down");
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // The workers drained the queue (including promoted session requests)
  // before exiting; fail anything that still made it in, then any session
  // requests that never got their turn.
  for (Request& r : queue_) {
    r.promise.set_value(Status::Unavailable("service shut down"));
  }
  queue_.clear();
  for (auto& [id, session] : sessions_) {
    FailPendingLocked(session.get());
  }
  queue_depth_gauge_->Set(0);
}

std::future<GremlinService::Response> GremlinService::Submit(
    std::string script) {
  return Submit(std::move(script), gremlin::Environment{});
}

std::future<GremlinService::Response> GremlinService::Submit(
    std::string script, gremlin::Environment bindings) {
  Request request;
  request.script = std::move(script);
  request.bindings = std::move(bindings);
  std::future<Response> future = request.promise.get_future();
  requests_total_->fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      request.promise.set_value(Status::Unavailable("service shut down"));
      return future;
    }
    if (ShedLocked(&request)) return future;
    queue_.push_back(std::move(request));
    queue_depth_gauge_->Set(
        static_cast<int64_t>(queue_.size() + pending_count_));
  }
  cv_.notify_one();
  return future;
}

std::future<GremlinService::Response> GremlinService::SubmitSession(
    const std::string& session_id, std::string script) {
  return SubmitSession(session_id, std::move(script),
                       gremlin::Environment{});
}

std::future<GremlinService::Response> GremlinService::SubmitSession(
    const std::string& session_id, std::string script,
    gremlin::Environment bindings) {
  Request request;
  request.script = std::move(script);
  request.bindings = std::move(bindings);
  std::future<Response> future = request.promise.get_future();
  requests_total_->fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      request.promise.set_value(Status::Unavailable("service shut down"));
      return future;
    }
    if (ShedLocked(&request)) return future;
    std::shared_ptr<Session>& session = sessions_[session_id];
    if (session == nullptr) {
      session = std::make_shared<Session>();
      sessions_opened_->fetch_add(1);
    }
    if (session->active) {
      // The session already has a request queued or executing; park this
      // one (session pointer stays null until promotion).
      session->pending.push_back(std::move(request));
      ++pending_count_;
    } else {
      session->active = true;
      request.session = session;
      queue_.push_back(std::move(request));
    }
    queue_depth_gauge_->Set(
        static_cast<int64_t>(queue_.size() + pending_count_));
  }
  cv_.notify_one();
  return future;
}

void GremlinService::CloseSession(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  // An in-flight request keeps the Session object alive through its own
  // shared_ptr and completes normally; its completion finds no pending
  // work and simply deactivates the orphaned session.
  FailPendingLocked(it->second.get());
  sessions_.erase(it);
  queue_depth_gauge_->Set(
      static_cast<int64_t>(queue_.size() + pending_count_));
}

void GremlinService::WorkerLoop() {
  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge_->Set(
          static_cast<int64_t>(queue_.size() + pending_count_));
    }

    // Route through the unified Execute so service requests pick up the
    // plan cache and tracing (profile() terminals, slow-query traces)
    // exactly like direct calls. A sessioned request has exclusive use of
    // its session's environment — the session admits one request at a
    // time — so no lock is held during execution.
    uint64_t start = TraceClock::Default()->NowMicros();
    ExecOptions options;
    options.bindings = std::move(request.bindings);
    if (request.session != nullptr) {
      options.session_env = &request.session->env;
    }
    // The shared shutdown token, so Shutdown() cancels this execution
    // cooperatively.
    options.cancel_token = shutdown_token_;
    // Execution tuning and governor limits: the service-level ExecConfig
    // overlays the graph's session config per request.
    options.config = options_.exec;
    Status injected = Status::OK();
    DB2G_FAILPOINT_STATUS("service.before_execute", injected);
    Response response = injected.ok()
                            ? graph_->Execute(request.script, options)
                            : Response(injected);
    request_latency_->Observe(TraceClock::Default()->NowMicros() - start);

    if (request.session != nullptr) {
      // Promote the session's next pending request, if any.
      std::lock_guard<std::mutex> lock(mutex_);
      Session* session = request.session.get();
      if (!session->pending.empty()) {
        Request next = std::move(session->pending.front());
        session->pending.pop_front();
        --pending_count_;
        next.session = request.session;
        queue_.push_back(std::move(next));
        queue_depth_gauge_->Set(
            static_cast<int64_t>(queue_.size() + pending_count_));
        cv_.notify_one();
      } else {
        session->active = false;
      }
    }

    // Count before fulfilling the promise: a client that synchronizes on
    // the future must observe its own request in completed().
    completed_.fetch_add(1, std::memory_order_release);
    request.promise.set_value(std::move(response));
  }
}

}  // namespace db2graph::core
