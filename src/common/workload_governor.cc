#include "common/workload_governor.h"

#include <chrono>

#include "common/metrics.h"

namespace db2graph::governor {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<uint64_t> g_next_query_id{1};

thread_local QueryContext* t_current_context = nullptr;

}  // namespace

// -- CancelToken --------------------------------------------------------

CancelToken CancelToken::Make() {
  CancelToken token;
  token.state_ = std::make_shared<State>();
  return token;
}

void CancelToken::Cancel(std::string reason) {
  if (state_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->reason.empty()) state_->reason = std::move(reason);
  }
  // Release: the reason is written before the flag readers act on.
  state_->cancelled.store(true, std::memory_order_release);
}

bool CancelToken::cancelled() const {
  return state_ != nullptr &&
         state_->cancelled.load(std::memory_order_acquire);
}

std::string CancelToken::reason() const {
  if (state_ == nullptr) return std::string();
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->reason;
}

// -- QueryContext -------------------------------------------------------

QueryContext::QueryContext(std::string script, GovernorLimits limits,
                           CancelToken external)
    : id_(g_next_query_id.fetch_add(1, std::memory_order_relaxed)),
      script_(std::move(script)),
      limits_(limits),
      external_(std::move(external)),
      own_(CancelToken::Make()),
      start_micros_(NowMicros()),
      deadline_micros_(limits.timeout_ms > 0
                           ? start_micros_ +
                                 static_cast<uint64_t>(limits.timeout_ms) *
                                     1000
                           : 0) {}

uint64_t QueryContext::elapsed_micros() const {
  return NowMicros() - start_micros_;
}

Status QueryContext::Latch(StatusCode code, std::string message) {
  int expected = static_cast<int>(StatusCode::kOk);
  if (violation_.compare_exchange_strong(expected, static_cast<int>(code),
                                         std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(mutex_);
    violation_message_ = std::move(message);
    return Status(code, violation_message_);
  }
  // Another thread latched first; report its violation.
  std::lock_guard<std::mutex> lock(mutex_);
  return Status(static_cast<StatusCode>(
                    violation_.load(std::memory_order_acquire)),
                violation_message_);
}

Status QueryContext::Check() {
  int code = violation_.load(std::memory_order_acquire);
  if (code != static_cast<int>(StatusCode::kOk)) {
    std::lock_guard<std::mutex> lock(mutex_);
    return Status(static_cast<StatusCode>(code), violation_message_);
  }
  if (own_.cancelled()) {
    return Latch(StatusCode::kCancelled, own_.reason());
  }
  if (external_.cancelled()) {
    std::string reason = external_.reason();
    return Latch(StatusCode::kCancelled,
                 reason.empty() ? "query cancelled" : std::move(reason));
  }
  if (deadline_micros_ != 0 && NowMicros() >= deadline_micros_) {
    return Latch(StatusCode::kTimeout,
                 "query exceeded deadline of " +
                     std::to_string(limits_.timeout_ms) + " ms");
  }
  return Status::OK();
}

void QueryContext::Cancel(std::string reason) {
  own_.Cancel(reason.empty() ? "query cancelled" : std::move(reason));
}

Status QueryContext::ChargeMemory(uint64_t bytes) {
  uint64_t now =
      memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = memory_peak_.load(std::memory_order_relaxed);
  while (now > peak && !memory_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (limits_.max_memory_bytes > 0 &&
      now > static_cast<uint64_t>(limits_.max_memory_bytes)) {
    return Latch(StatusCode::kResourceExhausted,
                 "query exceeded memory budget of " +
                     std::to_string(limits_.max_memory_bytes) + " bytes (" +
                     std::to_string(now) + " charged)");
  }
  return Status::OK();
}

void QueryContext::ReleaseMemory(uint64_t bytes) {
  memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

Status QueryContext::CheckResultRows(uint64_t rows) {
  if (limits_.max_result_rows > 0 &&
      rows > static_cast<uint64_t>(limits_.max_result_rows)) {
    return Latch(StatusCode::kResourceExhausted,
                 "query exceeded result-row budget of " +
                     std::to_string(limits_.max_result_rows) + " rows");
  }
  return Status::OK();
}

// -- thread-local installation ------------------------------------------

QueryContext* CurrentQueryContext() { return t_current_context; }

Status CheckCurrent() {
  QueryContext* ctx = t_current_context;
  if (ctx == nullptr) return Status::OK();
  return ctx->Check();
}

ScopedQueryContext::ScopedQueryContext(QueryContext* ctx)
    : previous_(t_current_context) {
  t_current_context = ctx;
}

ScopedQueryContext::~ScopedQueryContext() { t_current_context = previous_; }

// -- ActiveQueryRegistry ------------------------------------------------

ActiveQueryRegistry& ActiveQueryRegistry::Global() {
  static ActiveQueryRegistry* instance = new ActiveQueryRegistry();
  return *instance;
}

void ActiveQueryRegistry::Register(std::shared_ptr<QueryContext> ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_[ctx->id()] = std::move(ctx);
}

void ActiveQueryRegistry::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  active_.erase(id);
}

bool ActiveQueryRegistry::Kill(uint64_t id, std::string reason) {
  std::shared_ptr<QueryContext> ctx;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = active_.find(id);
    if (it == active_.end()) return false;
    ctx = it->second;
  }
  // Cancel outside the lock: Check() callers latching concurrently take
  // the context mutex, never the registry one.
  ctx->Cancel(std::move(reason));
  return true;
}

std::vector<std::shared_ptr<QueryContext>> ActiveQueryRegistry::Snapshot()
    const {
  std::vector<std::shared_ptr<QueryContext>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(active_.size());
  for (const auto& [id, ctx] : active_) out.push_back(ctx);
  return out;
}

size_t ActiveQueryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_.size();
}

ScopedActiveQuery::ScopedActiveQuery(std::shared_ptr<QueryContext> ctx)
    : ctx_(std::move(ctx)), scope_(ctx_.get()) {
  if (ctx_ != nullptr) ActiveQueryRegistry::Global().Register(ctx_);
}

ScopedActiveQuery::~ScopedActiveQuery() {
  if (ctx_ != nullptr) ActiveQueryRegistry::Global().Unregister(ctx_->id());
}

// -- termination bookkeeping --------------------------------------------

const char* TerminationReason(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kOverloaded:
      return "overloaded";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    default:
      return "error";
  }
}

void CountTermination(const Status& status) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  switch (status.code()) {
    case StatusCode::kTimeout:
      registry.GetCounter(kTimeoutsCounter)->fetch_add(1);
      break;
    case StatusCode::kCancelled:
      registry.GetCounter(kCancelsCounter)->fetch_add(1);
      break;
    case StatusCode::kResourceExhausted:
      registry.GetCounter(kResourceExhaustedCounter)->fetch_add(1);
      break;
    default:
      break;
  }
}

}  // namespace db2graph::governor
