#include "common/trace.h"

#include <chrono>

namespace db2graph {

uint64_t TraceClock::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceClock* TraceClock::Default() {
  static TraceClock* instance = new TraceClock();
  return instance;
}

QueryTrace::QueryTrace(TraceClock* clock) : clock_(clock) {}

void QueryTrace::SetScript(std::string script) {
  std::lock_guard<std::mutex> lock(mutex_);
  script_ = std::move(script);
}

void QueryTrace::SetPlanSource(std::string source) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_source_ = std::move(source);
}

std::string QueryTrace::plan_source() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plan_source_;
}

void QueryTrace::SetTermination(std::string reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  termination_ = std::move(reason);
}

std::string QueryTrace::termination() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return termination_;
}

StepTraceSpan* QueryTrace::InnermostOpenLocked() {
  if (open_.empty()) return nullptr;
  return &spans_[open_.back()];
}

int QueryTrace::BeginStep(std::string step, std::string detail,
                          uint64_t in_count) {
  std::lock_guard<std::mutex> lock(mutex_);
  StepTraceSpan span;
  span.index = static_cast<int>(spans_.size());
  span.depth = static_cast<int>(open_.size());
  span.step = std::move(step);
  span.detail = std::move(detail);
  span.in_count = in_count;
  span.start_micros = clock_->NowMicros();
  span.tid = TraceTid();
  spans_.push_back(std::move(span));
  span_starts_.push_back(spans_.back().start_micros);
  span_paused_.push_back(false);
  open_.push_back(spans_.back().index);
  return spans_.back().index;
}

void QueryTrace::EndStep(int span_id, uint64_t out_count) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span_id < 0 || span_id >= static_cast<int>(spans_.size())) return;
  StepTraceSpan& span = spans_[span_id];
  span.out_count = out_count;
  // Accumulate (not assign): a streamed span already banked the micros of
  // its earlier Resume/Pause windows.
  if (!span_paused_[span_id]) {
    span.micros += clock_->NowMicros() - span_starts_[span_id];
  }
  // Close this span (and, defensively, anything opened after it).
  while (!open_.empty() && open_.back() >= span_id) open_.pop_back();
}

void QueryTrace::PauseStep(int span_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span_id < 0 || span_id >= static_cast<int>(spans_.size())) return;
  if (span_paused_[span_id]) return;
  spans_[span_id].micros += clock_->NowMicros() - span_starts_[span_id];
  span_paused_[span_id] = true;
  while (!open_.empty() && open_.back() >= span_id) open_.pop_back();
}

void QueryTrace::ResumeStep(int span_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span_id < 0 || span_id >= static_cast<int>(spans_.size())) return;
  if (!span_paused_[span_id]) return;
  span_starts_[span_id] = clock_->NowMicros();
  span_paused_[span_id] = false;
  open_.push_back(span_id);
}

void QueryTrace::AddBlocks(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (StepTraceSpan* span = InnermostOpenLocked()) span->blocks += n;
}

void QueryTrace::AddStepInput(int span_id, uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (span_id < 0 || span_id >= static_cast<int>(spans_.size())) return;
  spans_[span_id].in_count += n;
}

void QueryTrace::AddRewrite(std::string strategy, std::string before,
                            std::string after) {
  std::lock_guard<std::mutex> lock(mutex_);
  rewrites_.push_back(
      {std::move(strategy), std::move(before), std::move(after)});
}

int QueryTrace::InnermostOpenSpan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_.empty() ? -1 : open_.back();
}

void QueryTrace::RecordSql(SqlTraceRecord record, int span_id) {
  if (record.tid == 0) record.tid = TraceTid();
  if (record.start_micros == 0) {
    uint64_t now = clock_->NowMicros();
    record.start_micros = now > record.micros ? now - record.micros : 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  StepTraceSpan* span = span_id >= 0 &&
                                span_id < static_cast<int>(spans_.size())
                            ? &spans_[span_id]
                            : InnermostOpenLocked();
  if (span != nullptr) span->statements.push_back(std::move(record));
}

void QueryTrace::AddTableConsulted(std::string table) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (StepTraceSpan* span = InnermostOpenLocked()) {
    span->tables_consulted.push_back(std::move(table));
  }
}

void QueryTrace::AddTablePruned(std::string table) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (StepTraceSpan* span = InnermostOpenLocked()) {
    span->tables_pruned.push_back(std::move(table));
  }
}

void QueryTrace::AddShortcutVertices(uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (StepTraceSpan* span = InnermostOpenLocked()) {
    span->shortcut_vertices += n;
  }
}

void QueryTrace::Finish(uint64_t total_micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_micros_ = total_micros;
}

uint64_t QueryTrace::total_micros() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_micros_;
}

std::vector<StepTraceSpan> QueryTrace::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {spans_.begin(), spans_.end()};
}

std::vector<StrategyRewrite> QueryTrace::Rewrites() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rewrites_;
}

QueryTrace::RowTotals QueryTrace::SqlRowTotals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RowTotals totals;
  for (const StepTraceSpan& span : spans_) {
    for (const SqlTraceRecord& rec : span.statements) {
      totals.rows_scanned += rec.rows_scanned;
      totals.rows_emitted += rec.rows_emitted;
    }
  }
  return totals;
}

std::string QueryTrace::RenderText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  if (!script_.empty()) out += "query: " + script_ + "\n";
  if (!plan_source_.empty()) out += "plan: " + plan_source_ + "\n";
  if (!termination_.empty() && termination_ != "ok") {
    out += "termination: " + termination_ + "\n";
  }
  if (!rewrites_.empty()) {
    out += "strategies:\n";
    for (const StrategyRewrite& r : rewrites_) {
      out += "  " + r.strategy + ":\n";
      out += "    before: " + r.before + "\n";
      out += "    after:  " + r.after + "\n";
    }
  }
  out += "steps:\n";
  for (const StepTraceSpan& span : spans_) {
    std::string pad(2 + 2 * static_cast<size_t>(span.depth), ' ');
    out += pad + span.step + " " + span.detail + "  [" +
           std::to_string(span.in_count) + " -> " +
           std::to_string(span.out_count) + " traversers, " +
           std::to_string(span.micros) + "us]\n";
    if (span.blocks > 0) {
      out += pad + "  blocks=" + std::to_string(span.blocks) + "\n";
    }
    if (!span.tables_consulted.empty() || !span.tables_pruned.empty()) {
      out += pad + "  tables: consulted=" +
             std::to_string(span.tables_consulted.size()) + " pruned=" +
             std::to_string(span.tables_pruned.size());
      if (!span.tables_consulted.empty()) {
        out += " [";
        for (size_t i = 0; i < span.tables_consulted.size(); ++i) {
          if (i > 0) out += ", ";
          out += span.tables_consulted[i];
        }
        out += "]";
      }
      out += "\n";
    }
    if (span.shortcut_vertices > 0) {
      out += pad + "  shortcut_vertices=" +
             std::to_string(span.shortcut_vertices) + "\n";
    }
    for (const SqlTraceRecord& rec : span.statements) {
      out += pad + "  sql[" + rec.table + ", " + rec.access_path + "]: " +
             rec.sql + "\n";
      out += pad + "    rows: scanned=" + std::to_string(rec.rows_scanned) +
             " returned=" + std::to_string(rec.rows_returned);
      if (rec.rows_emitted != rec.rows_returned) {
        out += " emitted=" + std::to_string(rec.rows_emitted);
      }
      if (rec.rows_estimated > 0) {
        out += " estimated<=" + std::to_string(rec.rows_estimated);
      }
      if (!rec.exec_mode.empty()) {
        out += " mode=" + rec.exec_mode;
      }
      out += " (" + std::to_string(rec.micros) + "us)\n";
    }
  }
  out += "total: " + std::to_string(total_micros_) + "us\n";
  return out;
}

Json QueryTrace::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json out = Json::Object();
  out.Set("script", Json::Str(script_));
  if (!plan_source_.empty()) out.Set("plan", Json::Str(plan_source_));
  if (!termination_.empty()) {
    out.Set("termination", Json::Str(termination_));
  }
  out.Set("total_micros", Json::Number(static_cast<double>(total_micros_)));
  Json strategies = Json::Array();
  for (const StrategyRewrite& r : rewrites_) {
    Json one = Json::Object();
    one.Set("strategy", Json::Str(r.strategy));
    one.Set("before", Json::Str(r.before));
    one.Set("after", Json::Str(r.after));
    strategies.Append(std::move(one));
  }
  out.Set("strategies", std::move(strategies));
  Json steps = Json::Array();
  for (const StepTraceSpan& span : spans_) {
    Json one = Json::Object();
    one.Set("index", Json::Number(span.index));
    one.Set("depth", Json::Number(span.depth));
    one.Set("step", Json::Str(span.step));
    one.Set("detail", Json::Str(span.detail));
    one.Set("in", Json::Number(static_cast<double>(span.in_count)));
    one.Set("out", Json::Number(static_cast<double>(span.out_count)));
    one.Set("micros", Json::Number(static_cast<double>(span.micros)));
    one.Set("blocks", Json::Number(static_cast<double>(span.blocks)));
    Json consulted = Json::Array();
    for (const std::string& t : span.tables_consulted) {
      consulted.Append(Json::Str(t));
    }
    one.Set("tables_consulted", std::move(consulted));
    Json pruned = Json::Array();
    for (const std::string& t : span.tables_pruned) {
      pruned.Append(Json::Str(t));
    }
    one.Set("tables_pruned", std::move(pruned));
    one.Set("shortcut_vertices",
            Json::Number(static_cast<double>(span.shortcut_vertices)));
    Json statements = Json::Array();
    for (const SqlTraceRecord& rec : span.statements) {
      Json stmt = Json::Object();
      stmt.Set("table", Json::Str(rec.table));
      stmt.Set("sql", Json::Str(rec.sql));
      stmt.Set("access_path", Json::Str(rec.access_path));
      stmt.Set("exec_mode", Json::Str(rec.exec_mode));
      stmt.Set("rows_scanned",
               Json::Number(static_cast<double>(rec.rows_scanned)));
      stmt.Set("rows_returned",
               Json::Number(static_cast<double>(rec.rows_returned)));
      stmt.Set("rows_emitted",
               Json::Number(static_cast<double>(rec.rows_emitted)));
      stmt.Set("rows_estimated",
               Json::Number(static_cast<double>(rec.rows_estimated)));
      stmt.Set("micros", Json::Number(static_cast<double>(rec.micros)));
      statements.Append(std::move(stmt));
    }
    one.Set("statements", std::move(statements));
    steps.Append(std::move(one));
  }
  out.Set("steps", std::move(steps));
  return out;
}

Json QueryTrace::ToChromeTrace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json events = Json::Array();
  auto complete_event = [](const std::string& name, const std::string& cat,
                           uint64_t ts, uint64_t dur, int tid, Json args) {
    Json e = Json::Object();
    e.Set("name", Json::Str(name));
    e.Set("cat", Json::Str(cat));
    e.Set("ph", Json::Str("X"));
    e.Set("ts", Json::Number(static_cast<double>(ts)));
    e.Set("dur", Json::Number(static_cast<double>(dur)));
    e.Set("pid", Json::Number(1));
    e.Set("tid", Json::Number(tid));
    e.Set("args", std::move(args));
    return e;
  };
  for (const StepTraceSpan& span : spans_) {
    Json args = Json::Object();
    args.Set("detail", Json::Str(span.detail));
    args.Set("in", Json::Number(static_cast<double>(span.in_count)));
    args.Set("out", Json::Number(static_cast<double>(span.out_count)));
    if (span.blocks > 0) {
      args.Set("blocks", Json::Number(static_cast<double>(span.blocks)));
    }
    events.Append(complete_event("step:" + span.step, "step",
                                 span.start_micros, span.micros, span.tid,
                                 std::move(args)));
    for (const SqlTraceRecord& rec : span.statements) {
      Json sql_args = Json::Object();
      sql_args.Set("sql", Json::Str(rec.sql));
      sql_args.Set("access_path", Json::Str(rec.access_path));
      sql_args.Set("rows_scanned",
                   Json::Number(static_cast<double>(rec.rows_scanned)));
      sql_args.Set("rows_returned",
                   Json::Number(static_cast<double>(rec.rows_returned)));
      std::string name =
          rec.table.empty() ? std::string("sql") : "sql:" + rec.table;
      events.Append(complete_event(name, "sql", rec.start_micros, rec.micros,
                                   rec.tid, std::move(sql_args)));
    }
  }
  Json out = Json::Object();
  out.Set("traceEvents", std::move(events));
  out.Set("displayTimeUnit", Json::Str("ms"));
  if (!script_.empty()) {
    Json meta = Json::Object();
    meta.Set("script", Json::Str(script_));
    if (!plan_source_.empty()) meta.Set("plan", Json::Str(plan_source_));
    meta.Set("total_micros",
             Json::Number(static_cast<double>(total_micros_)));
    out.Set("metadata", std::move(meta));
  }
  return out;
}

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
}  // namespace

QueryTrace* CurrentTrace() { return g_current_trace; }

int CurrentTraceSpan() {
  if (g_current_trace == nullptr) return -1;
  return g_current_trace->InnermostOpenSpan();
}

int TraceTid() {
  static std::atomic<int> next_tid{1};
  thread_local int tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

ScopedTrace::ScopedTrace(QueryTrace* trace) : previous_(g_current_trace) {
  g_current_trace = trace;
}

ScopedTrace::~ScopedTrace() { g_current_trace = previous_; }

}  // namespace db2graph
