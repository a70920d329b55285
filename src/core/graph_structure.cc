#include "core/graph_structure.h"

#include "core/graph_planning.h"
#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/exec_config.h"
#include "common/fault_injection.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/workload_governor.h"

namespace db2graph::core {

using gremlin::AggOp;
using gremlin::Direction;
using gremlin::Edge;
using gremlin::EdgePtr;
using gremlin::LookupSpec;
using gremlin::Vertex;
using gremlin::VertexPtr;
using overlay::ResolvedEdgeTable;
using overlay::ResolvedField;
using overlay::ResolvedVertexTable;

// ----------------------------------------------------------------------
// Row-to-element builders: one per element kind
// ----------------------------------------------------------------------

namespace {

// A fetched row's label: the table's fixed label or its label column.
template <typename Table>
std::string FetchedLabel(const Table& t, const FetchLayout& layout,
                         const Row& row) {
  return t.conf.label.fixed ? t.conf.label.value
                            : row[layout.PosOf(*t.label_column)].ToString();
}

// What both element kinds take from a fetched row once id and label are
// set: the non-null fetched properties, the source table, and the row
// itself as provenance.
template <typename Table>
void FillFromFetched(const Table& t, int table_index,
                     const FetchLayout& layout, Row row,
                     gremlin::Element* element) {
  for (size_t i = 0; i < t.properties.size(); ++i) {
    if (!layout.Has(t.property_columns[i])) continue;
    const Value& value = row[layout.PosOf(t.property_columns[i])];
    if (!value.is_null()) {
      element->properties.emplace_back(t.properties[i], value);
    }
  }
  element->source_table = t.conf.table_name;
  auto prov = std::make_shared<RowProvenance>();
  prov->table_index = table_index;
  prov->row = std::move(row);
  element->provenance = std::move(prov);
}

VertexPtr BuildVertexFromFetched(const ResolvedVertexTable& t, int table_index,
                                 const FetchLayout& layout, Row row) {
  auto v = std::make_shared<Vertex>();
  v->id = ComposeField(t.id, layout, row);
  v->label = FetchedLabel(t, layout, row);
  FillFromFetched(t, table_index, layout, std::move(row), v.get());
  return v;
}

// The implicit edge id "src::label::dst".
Value ImplicitEdgeId(const Value& src, const std::string& label,
                     const Value& dst) {
  return Value(src.ToString() + kIdSeparator + label + kIdSeparator +
               dst.ToString());
}

EdgePtr BuildEdgeFromFetched(const ResolvedEdgeTable& t, int table_index,
                             const FetchLayout& layout, Row row) {
  auto e = std::make_shared<Edge>();
  e->src_id = ComposeField(t.src_v, layout, row);
  e->dst_id = ComposeField(t.dst_v, layout, row);
  e->label = FetchedLabel(t, layout, row);
  e->id = t.conf.implicit_edge_id ? ImplicitEdgeId(e->src_id, e->label,
                                                   e->dst_id)
                                  : ComposeField(t.id, layout, row);
  FillFromFetched(t, table_index, layout, std::move(row), e.get());
  return e;
}

// Layout of a full-row fetch: every schema column, in schema order.
FetchLayout FullRowLayout(const sql::TableSchema& schema) {
  std::vector<size_t> cols(schema.columns.size());
  std::iota(cols.begin(), cols.end(), size_t{0});
  return MakeLayout(schema, std::move(cols));
}

// ----------------------------------------------------------------------
// The per-table lookup pipeline
// ----------------------------------------------------------------------
//
// Every lookup runs the same stages over either kind of table: plan each
// table, prune and count it (PlanJobs); build its statement
// (BuildStatement); read it as a stream of element blocks (TableReader);
// then either drain the readers and merge their results in table order
// (Db2GraphProvider::RunInOrder) or hand them to a pulled stream
// (Db2ElementStream). TableKind holds what differs between the kinds.

template <typename Table>
struct TableKind;

template <>
struct TableKind<ResolvedVertexTable> {
  using ElementPtr = VertexPtr;
  static constexpr const char* kFetchFailpoint = "provider.fetch_vertex_table";

  static TablePlan Plan(const ResolvedVertexTable& t, const LookupSpec& spec,
                        const RuntimeOptions& options) {
    return PlanVertexTable(t, spec, options);
  }
  static std::vector<size_t> FetchColumns(const ResolvedVertexTable& t,
                                          const LookupSpec& spec) {
    return VertexFetchColumns(t, spec);
  }
  static metrics::Counter& Queried(Db2GraphProvider::Stats* stats) {
    return stats->vertex_tables_queried;
  }
  static metrics::Counter& Pruned(Db2GraphProvider::Stats* stats) {
    return stats->vertex_tables_pruned;
  }
  static VertexPtr Build(const ResolvedVertexTable& t, int table_index,
                         const FetchLayout& layout, Row row) {
    return BuildVertexFromFetched(t, table_index, layout, std::move(row));
  }
  static bool Matches(const Vertex& v, const LookupSpec& spec) {
    return gremlin::MatchesSpec(v, spec);
  }
};

template <>
struct TableKind<ResolvedEdgeTable> {
  using ElementPtr = EdgePtr;
  static constexpr const char* kFetchFailpoint = "provider.fetch_edge_table";

  static TablePlan Plan(const ResolvedEdgeTable& t, const LookupSpec& spec,
                        const RuntimeOptions& options) {
    return PlanEdgeTable(t, spec, options);
  }
  static std::vector<size_t> FetchColumns(const ResolvedEdgeTable& t,
                                          const LookupSpec& spec) {
    return EdgeFetchColumns(t, spec);
  }
  static metrics::Counter& Queried(Db2GraphProvider::Stats* stats) {
    return stats->edge_tables_queried;
  }
  static metrics::Counter& Pruned(Db2GraphProvider::Stats* stats) {
    return stats->edge_tables_pruned;
  }
  static EdgePtr Build(const ResolvedEdgeTable& t, int table_index,
                       const FetchLayout& layout, Row row) {
    return BuildEdgeFromFetched(t, table_index, layout, std::move(row));
  }
  static bool Matches(const Edge& e, const LookupSpec& spec) {
    return MatchesEdgeSpec(e, spec);
  }
};

// The column an aggregate reads: "" for count(*), nullopt when `t` lacks
// the aggregated property (the table contributes nothing).
template <typename Table>
std::optional<std::string> AggregatedColumn(const Table& t,
                                            const LookupSpec& spec) {
  if (spec.agg == AggOp::kCount && spec.agg_key.empty()) {
    return std::string();
  }
  std::optional<size_t> column = PropertyColumn(t, spec.agg_key);
  if (!column) return std::nullopt;
  return t.schema->columns[*column].name;
}

// One table a lookup consults, with its plan.
struct TableJob {
  int table_index;
  TablePlan plan;
};

// Plans `spec` against `tables` (all of them, or only `subset`, in the
// order given) and appends the surviving tables to `jobs`, counting and
// tracing each pruned and each consulted table in that order. An
// aggregate declines (Unsupported) at the first table that needs
// client-side filtering, and skips the tables lacking the aggregated
// property without counting them.
template <typename Table>
Status PlanJobs(const std::vector<Table>& tables, const LookupSpec& spec,
                const std::vector<int>* subset, bool aggregate,
                const RuntimeOptions& options,
                Db2GraphProvider::Stats* stats, std::vector<TableJob>* jobs) {
  using Kind = TableKind<Table>;
  QueryTrace* trace = CurrentTrace();
  const size_t n = subset != nullptr ? subset->size() : tables.size();
  for (size_t i = 0; i < n; ++i) {
    const int ti = subset != nullptr ? (*subset)[i] : static_cast<int>(i);
    const Table& t = tables[ti];
    TablePlan plan = Kind::Plan(t, spec, options);
    if (aggregate && plan.client_filter) {
      return Status::Unsupported("aggregate needs client-side filtering");
    }
    if (plan.skip) {
      Kind::Pruned(stats).fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    if (aggregate && !AggregatedColumn(t, spec)) continue;
    Kind::Queried(stats).fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->AddTableConsulted(t.conf.table_name);
    jobs->push_back(TableJob{ti, std::move(plan)});
  }
  return Status::OK();
}

// One table's statement. The element reads, the aggregates and Explain
// all run BuildStatement, so a preview shows exactly the SQL that
// executes. `table` and `conds` point into the overlay table and the
// plan, which outlive the statement.
struct TableStatement {
  const std::string* table = nullptr;
  std::string select;
  const QueryConds* conds = nullptr;
  int64_t limit = -1;
  FetchLayout layout;  // element fetches only
  std::vector<Value> params;

  // Key of the statement's text in the dialect's SQL-skeleton cache.
  std::string Key() const { return ShapeKey(*table, select, *conds, limit); }
  std::string Sql() const {
    std::vector<Value> ignored;
    return BuildSql(*table, select, *conds, &ignored, limit);
  }
};

std::string AggregateSelect(AggOp op, const std::string& column) {
  const std::string quoted = "\"" + column + "\"";
  switch (op) {
    case AggOp::kCount:
      return column.empty() ? "COUNT(*)" : "COUNT(" + quoted + ")";
    case AggOp::kSum:
    case AggOp::kMean:
      return "SUM(" + quoted + "), COUNT(" + quoted + ")";
    case AggOp::kMin:
      return "MIN(" + quoted + ")";
    case AggOp::kMax:
      return "MAX(" + quoted + ")";
    case AggOp::kNone:
      break;
  }
  return "";
}

// Builds `plan`'s statement against `t`. An aggregate selects COUNT /
// SUM+COUNT / MIN / MAX under the plan's conditions; nullopt means `t`
// lacks the aggregated property. An element fetch selects the projected
// columns under the plan's conditions and row budget — or, when the plan
// filters client-side, full rows with neither: SQL does not see every
// filter, so it must not drop or truncate rows.
template <typename Table>
std::optional<TableStatement> BuildStatement(const Table& t,
                                             const LookupSpec& spec,
                                             const TablePlan& plan,
                                             bool aggregate) {
  static const QueryConds kNoConds;
  TableStatement q;
  q.table = &t.conf.table_name;
  q.conds = &plan.conds;
  if (aggregate) {
    std::optional<std::string> column = AggregatedColumn(t, spec);
    if (!column) return std::nullopt;
    q.select = AggregateSelect(spec.agg, *column);
  } else if (plan.client_filter) {
    q.layout = FullRowLayout(*t.schema);
    q.select = SelectListFor(*t.schema, q.layout);
    q.conds = &kNoConds;
  } else {
    q.layout = MakeLayout(*t.schema, TableKind<Table>::FetchColumns(t, spec));
    q.select = SelectListFor(*t.schema, q.layout);
    q.limit = spec.limit;
  }
  CollectParams(*q.conds, &q.params);
  return q;
}

// Folds per-table aggregate rows into the aggregate's value: counts add
// up, SUM+COUNT pairs give the sum or mean, MIN/MAX keep the extreme
// non-null value.
Value MergeAggregate(AggOp op, const std::vector<Row>& partials) {
  int64_t total_count = 0;
  double total_sum = 0;
  bool sum_is_int = true;
  int64_t total_isum = 0;
  Value min_v;
  Value max_v;
  for (const Row& row : partials) {
    switch (op) {
      case AggOp::kCount:
        total_count += row[0].is_null() ? 0 : row[0].as_int();
        break;
      case AggOp::kSum:
      case AggOp::kMean:
        if (!row[0].is_null()) {
          total_sum += row[0].NumericValue();
          if (row[0].is_int()) {
            total_isum += row[0].as_int();
          } else {
            sum_is_int = false;
          }
          total_count += row[1].as_int();
        }
        break;
      case AggOp::kMin:
        if (!row[0].is_null() && (min_v.is_null() || row[0] < min_v)) {
          min_v = row[0];
        }
        break;
      case AggOp::kMax:
        if (!row[0].is_null() && (max_v.is_null() || row[0] > max_v)) {
          max_v = row[0];
        }
        break;
      case AggOp::kNone:
        break;
    }
  }
  switch (op) {
    case AggOp::kCount:
      return Value(total_count);
    case AggOp::kSum:
      if (total_count == 0) return Value::Null();
      return sum_is_int ? Value(total_isum) : Value(total_sum);
    case AggOp::kMean:
      if (total_count == 0) return Value::Null();
      return Value(total_sum / static_cast<double>(total_count));
    case AggOp::kMin:
      return min_v;
    case AggOp::kMax:
      return max_v;
    case AggOp::kNone:
      break;
  }
  return Value::Null();
}

// Builds `job`'s elements from fetched rows, dropping those a
// client-filtered plan rejects.
template <typename Table>
void AppendElements(const Table& t, const TableJob& job,
                    const LookupSpec& spec, const FetchLayout& layout,
                    std::span<Row> rows,
                    std::vector<typename TableKind<Table>::ElementPtr>* out) {
  for (Row& row : rows) {
    auto element =
        TableKind<Table>::Build(t, job.table_index, layout, std::move(row));
    if (job.plan.client_filter &&
        !TableKind<Table>::Matches(*element, spec)) {
      continue;
    }
    out->push_back(std::move(element));
  }
}

// One table's element read, the unit of work of every lookup: serial
// streams, parallel producers and the materialized drains all read tables
// through it. It touches only its own state or internally synchronized
// state, so the readers of one lookup run on any thread. `t`, `job` and
// `spec` must outlive the reader.
template <typename Table>
class TableReader {
 public:
  using ElementPtr = typename TableKind<Table>::ElementPtr;

  TableReader(SqlDialect* dialect, const Table& t, const TableJob& job,
              const LookupSpec& spec)
      : dialect_(dialect), t_(t), job_(job), spec_(spec) {}

  // Checks the governor, opens the table's SQL stream on the first call,
  // pulls up to `max` rows (0 = the execution's block size) and appends
  // their elements to `out`. False once the table is exhausted or the
  // read failed; status() tells which.
  bool Next(size_t max, std::vector<ElementPtr>* out) {
    if (!status_.ok()) return false;
    DB2G_FAILPOINT_STATUS("provider.read_block", status_);
    if (status_.ok()) status_ = governor::CheckCurrent();
    if (status_.ok() && rows_ == nullptr) status_ = Open();
    if (!status_.ok()) return false;
    block_.capacity = max;
    if (!rows_->Next(&block_)) {
      status_ = rows_->status();
      return false;
    }
    if (out->empty()) out->reserve(block_.rows.size());
    AppendElements(t_, job_, spec_, layout_, block_.rows, out);
    return true;
  }

  const Status& status() const { return status_; }

  // Closes the SQL stream, filing its trace and query-log records and
  // releasing its read lock (also run by the destructor).
  void Close() { rows_.reset(); }

 private:
  Status Open() {
    DB2G_FAILPOINT(TableKind<Table>::kFetchFailpoint);
    TableStatement q =
        *BuildStatement(t_, spec_, job_.plan, /*aggregate=*/false);
    dialect_->RecordPattern(t_.conf.table_name, job_.plan.predicate_columns);
    Result<std::unique_ptr<DialectRowStream>> rows =
        dialect_->QueryShapedStreaming(q.Key(), [&] { return q.Sql(); },
                                       q.params);
    if (!rows.ok()) return rows.status();
    layout_ = std::move(q.layout);
    rows_ = std::move(*rows);
    return Status::OK();
  }

  SqlDialect* dialect_;
  const Table& t_;
  const TableJob& job_;
  const LookupSpec& spec_;
  FetchLayout layout_;
  std::unique_ptr<DialectRowStream> rows_;
  sql::RowBlock block_;
  Status status_ = Status::OK();
};

// A materialized lookup's per-table job: drains `job`'s reader into
// `out`. A failed read appends nothing.
template <typename Table>
Status DrainTable(SqlDialect* dialect, const Table& t, const TableJob& job,
                  const LookupSpec& spec,
                  std::vector<typename TableKind<Table>::ElementPtr>* out) {
  TableReader<Table> reader(dialect, t, job, spec);
  const size_t before = out->size();
  while (reader.Next(/*max=*/0, out)) {
  }
  if (!reader.status().ok()) out->resize(before);
  return reader.status();
}

// The calling query's trace span, governor context and exec config,
// captured where a fan-out starts. Pool workers have none of their own;
// RunBatch installs them for each job, so its SQL lands in the step that
// started the fan-out, observes the query's budgets and compiles under
// its config.
struct QueryScope {
  QueryTrace* trace = CurrentTrace();
  int span = CurrentTraceSpan();
  governor::QueryContext* qctx = governor::CurrentQueryContext();
  ExecConfig exec = ExecConfig::Current();

  // Runs job(j) for j in [0, n) on the shared pool; returns when all ran.
  void RunBatch(size_t n, const std::function<void(size_t)>& job) const {
    ThreadPool::Shared().RunBatch(n, [&](size_t j) {
      ScopedTrace scoped(trace, span);
      governor::ScopedQueryContext governed(qctx);
      ScopedExecConfig configured(exec);
      job(j);
    });
  }
};

// Endpoint-table pruning (Section 6.3 "Using Source/Destination Vertex
// Tables"): whether edge table `t`'s endpoint on the `dir` side (either
// side for kBoth) can hold a vertex of `source_tables`. An undeclared
// endpoint table, or an empty set of source tables, always can.
bool EndpointCanHold(const overlay::Topology& topology,
                     const ResolvedEdgeTable& t, Direction dir,
                     const std::unordered_set<std::string>& source_tables) {
  if (source_tables.empty()) return true;
  auto holds = [&](int vertex_table) {
    return vertex_table < 0 ||
           source_tables.count(
               topology.vertex_tables()[vertex_table].conf.table_name) > 0;
  };
  return ((dir == Direction::kOut || dir == Direction::kBoth) &&
          holds(t.src_vertex_table)) ||
         ((dir == Direction::kIn || dir == Direction::kBoth) &&
          holds(t.dst_vertex_table));
}

// The vertex tables the given elements were fetched from.
std::unordered_set<std::string> SourceTables(
    const std::vector<VertexPtr>& vertices) {
  std::unordered_set<std::string> tables;
  for (const VertexPtr& v : vertices) {
    if (!v->source_table.empty()) tables.insert(v->source_table);
  }
  return tables;
}

}  // namespace

// ----------------------------------------------------------------------

Db2GraphProvider::Db2GraphProvider(SqlDialect* dialect,
                                   overlay::Topology topology,
                                   RuntimeOptions options)
    : dialect_(dialect), topology_(std::move(topology)), options_(options) {
  if (options_.vertex_cache) {
    VertexCache::Options cache_options;
    cache_options.capacity = options_.vertex_cache_entries;
    cache_ = std::make_unique<VertexCache>(cache_options);
  }
}

bool Db2GraphProvider::BeginFanOut(size_t n) {
  // Fanning out while this thread already holds the database's shared
  // read lock (a graphQuery table function inside a SELECT) is unsafe:
  // pool workers would queue for fresh shared locks behind any waiting
  // writer, which in turn waits on this thread — a deadlock. Reentrant
  // calls run serially instead; the outer statement still parallelizes.
  if (n <= 1 || !options_.parallel_fanout ||
      dialect_->db()->ReadLockHeldByThisThread()) {
    return false;
  }
  stats_.parallel_batches.fetch_add(1, std::memory_order_relaxed);
  stats_.parallel_tasks.fetch_add(n, std::memory_order_relaxed);
  if (QueryTrace* trace = CurrentTrace()) trace->AddFanout(1, n);
  return true;
}

template <typename T>
Status Db2GraphProvider::RunInOrder(
    size_t n, const std::function<Status(size_t, std::vector<T>*)>& job,
    std::vector<T>* out) {
  // Jobs append only when they succeed, so a single job needs no slot.
  if (n == 1) return job(0, out);
  // Per-job result slots keep the merge deterministic in table order no
  // matter which worker finishes first.
  std::vector<std::vector<T>> slots(n);
  std::vector<Status> statuses(n, Status::OK());
  if (BeginFanOut(n)) {
    QueryScope().RunBatch(n,
                          [&](size_t j) { statuses[j] = job(j, &slots[j]); });
  } else {
    for (size_t j = 0; j < n; ++j) statuses[j] = job(j, &slots[j]);
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  for (std::vector<T>& slot : slots) {
    for (T& item : slot) out->push_back(std::move(item));
  }
  return Status::OK();
}

template <typename Table, typename ElementPtr>
Status Db2GraphProvider::FetchTables(const std::vector<Table>& tables,
                                     const LookupSpec& spec,
                                     const std::vector<int>* subset,
                                     std::vector<ElementPtr>* out) {
  std::vector<TableJob> jobs;
  DB2G_RETURN_NOT_OK(PlanJobs(tables, spec, subset, /*aggregate=*/false,
                              options_, &stats_, &jobs));
  return RunInOrder<ElementPtr>(
      jobs.size(),
      [&](size_t j, std::vector<ElementPtr>* slot) {
        return DrainTable(dialect_, tables[jobs[j].table_index], jobs[j],
                          spec, slot);
      },
      out);
}

template <typename Table>
Result<Value> Db2GraphProvider::AggregateTables(
    const std::vector<Table>& tables, const LookupSpec& spec) {
  if (spec.agg == AggOp::kNone) {
    return Status::Unsupported("no aggregate in spec");
  }
  std::vector<TableJob> jobs;
  DB2G_RETURN_NOT_OK(PlanJobs(tables, spec, /*subset=*/nullptr,
                              /*aggregate=*/true, options_, &stats_, &jobs));
  std::vector<Row> partials;  // one row per consulted table, table order
  DB2G_RETURN_NOT_OK(RunInOrder<Row>(
      jobs.size(),
      [&](size_t j, std::vector<Row>* rows) {
        const Table& t = tables[jobs[j].table_index];
        TableStatement q =
            *BuildStatement(t, spec, jobs[j].plan, /*aggregate=*/true);
        dialect_->RecordPattern(t.conf.table_name,
                                jobs[j].plan.predicate_columns);
        Result<sql::ResultSet> rs = dialect_->QueryShaped(
            q.Key(), [&] { return q.Sql(); }, q.params);
        if (!rs.ok()) return rs.status();
        for (Row& row : rs->rows) rows->push_back(std::move(row));
        return Status::OK();
      },
      &partials));
  return MergeAggregate(spec.agg, partials);
}

bool Db2GraphProvider::CacheUsable(const LookupSpec& spec) const {
  // Single-id point lookups only: multi-id answers would interleave
  // cached and fetched rows and break the deterministic table-major
  // result order. Projections fetch partial rows (never cacheable), and
  // under access control every lookup must reach SQL so grants apply.
  return cache_ != nullptr && options_.vertex_cache && spec.ids.size() == 1 &&
         spec.agg == AggOp::kNone && !spec.has_projection &&
         !dialect_->db()->access_control_enabled();
}

bool Db2GraphProvider::CacheFillEligible(const LookupSpec& spec) const {
  // Labels prune tables and predicates are pushed into WHERE: either one
  // makes the fetched set a subset of "all vertices with this id", which
  // is what a cache entry must hold. (Id-type pinning is fine — a table
  // skipped because the id cannot decompose into its key columns cannot
  // contain the vertex at all.) A limit truncates the fetch, so a limited
  // lookup can never populate an entry either.
  return spec.labels.empty() && spec.predicates.empty() && spec.limit < 0;
}

// ----------------------------------------------------------------------
// Element streams
// ----------------------------------------------------------------------

namespace {

// Bounded handoff of element blocks from one per-table producer to the
// consuming stream: producers block when their queue is full (backpressure
// instead of materializing the table), the consumer blocks until the
// producer delivers or finishes, and cancellation wakes both sides.
template <typename ElementPtr>
class BlockQueue {
 public:
  explicit BlockQueue(size_t capacity) : capacity_(capacity) {}

  // Producer side. False = the consumer cancelled; stop fetching.
  bool Push(std::vector<ElementPtr> block) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return cancelled_ || blocks_.size() < capacity_;
    });
    if (cancelled_) return false;
    blocks_.push_back(std::move(block));
    not_empty_.notify_one();
    return true;
  }
  void MarkDone(Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    status_ = std::move(status);
    not_empty_.notify_all();
  }

  // Consumer side. False = producer finished; check TakeStatus().
  bool Pop(std::vector<ElementPtr>* block) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return done_ || !blocks_.empty(); });
    if (blocks_.empty()) return false;
    *block = std::move(blocks_.front());
    blocks_.pop_front();
    not_full_.notify_one();
    return true;
  }
  Status TakeStatus() {
    std::lock_guard<std::mutex> lock(mutex_);
    return status_;
  }
  void Cancel() {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<std::vector<ElementPtr>> blocks_;
  bool done_ = false;
  bool cancelled_ = false;
  Status status_ = Status::OK();
};

// Live streaming lookup over the surviving tables of one kind.
//
// Serial mode keeps at most one TableReader open and pulls exactly the
// elements the consumer asks for. Parallel mode (fan-out eligible) starts
// a coordinator thread that fans the per-table producers out on the
// shared pool; each producer drains its table's reader into a bounded
// BlockQueue and the consumer drains the queues in table order, so
// results match the materialized table-major merge exactly. Close()
// cancels: producers stop at their next push, and ones that have not
// started observe the flag and never open their table.
template <typename Table>
class Db2ElementStream
    : public gremlin::ElementStream<typename TableKind<Table>::ElementPtr> {
 public:
  using ElementPtr = typename TableKind<Table>::ElementPtr;
  static constexpr size_t kQueueBlocks = 4;  // per-table backpressure bound

  // `parallel`: the caller counted a fan-out over `jobs` (BeginFanOut).
  Db2ElementStream(SqlDialect* dialect, const std::vector<Table>* tables,
                   LookupSpec spec, std::vector<TableJob> jobs, bool parallel)
      : dialect_(dialect),
        tables_(tables),
        spec_(std::move(spec)),
        jobs_(std::move(jobs)) {
    if (parallel) StartParallel();
  }

  ~Db2ElementStream() override { Close(); }

  bool Next(std::vector<ElementPtr>* out, size_t max) override {
    out->clear();
    if (closed_ || !status_.ok()) return false;
    if (max == 0) max = 1;
    return parallel_mode_ ? NextParallel(out, max) : NextSerial(out, max);
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    reader_.reset();
    if (parallel_mode_) {
      cancel_.store(true, std::memory_order_release);
      for (auto& q : queues_) q->Cancel();
      if (coordinator_.joinable()) coordinator_.join();
    }
  }

  const Status& status() const override { return status_; }

 private:
  // -- serial: one reader at a time, opened in table order ----------------
  bool NextSerial(std::vector<ElementPtr>* out, size_t max) {
    while (true) {
      if (!reader_.has_value()) {
        if (job_pos_ >= jobs_.size()) return false;
        reader_.emplace(dialect_, (*tables_)[jobs_[job_pos_].table_index],
                        jobs_[job_pos_], spec_);
      }
      if (reader_->Next(max, out)) {
        if (!out->empty()) return true;
        continue;  // all-filtered block: keep pulling
      }
      status_ = reader_->status();
      reader_.reset();
      if (!status_.ok()) return false;
      ++job_pos_;
    }
  }

  // -- parallel: bounded queues fed by pool workers -----------------------
  void StartParallel() {
    parallel_mode_ = true;
    queues_.reserve(jobs_.size());
    for (size_t i = 0; i < jobs_.size(); ++i) {
      queues_.push_back(
          std::make_unique<BlockQueue<ElementPtr>>(kQueueBlocks));
    }
    // Producers run under the consumer's query scope, so a deadline or
    // kill observed mid-table stops the fetch from inside the producer,
    // not only when the consumer gets around to calling Close(). RunBatch
    // blocks its caller until every task finished, which must not be the
    // consumer: a dedicated coordinator submits the batch and is joined
    // on Close(). The consumer only ever waits on queue pops.
    coordinator_ = std::thread([this, scope = QueryScope()] {
      scope.RunBatch(jobs_.size(), [this](size_t j) { ProduceTable(j); });
    });
  }

  void ProduceTable(size_t j) {
    BlockQueue<ElementPtr>& queue = *queues_[j];
    TableReader<Table> reader(dialect_, (*tables_)[jobs_[j].table_index],
                              jobs_[j], spec_);
    governor::QueryContext* qctx = governor::CurrentQueryContext();
    Status final_status = Status::OK();
    // Early termination: a task the consumer cancelled before it started
    // never opens its table. The reader checks the governor before each
    // block, so an expired deadline stops the fetch from inside the
    // producer; the consumer's unwind (Close) still runs.
    while (!cancel_.load(std::memory_order_acquire)) {
      std::vector<ElementPtr> elements;
      if (!reader.Next(sql::kDefaultBlockRows, &elements)) {
        final_status = reader.status();
        break;
      }
      if (elements.empty()) continue;
      if (qctx != nullptr) {
        // Blocks parked in the bounded queue count against the query's
        // memory budget; the consumer releases the charge on pop. Charges
        // stranded by cancellation die with the query context.
        final_status = qctx->ChargeMemory(elements.size() *
                                          governor::kApproxElementBytes);
        if (!final_status.ok()) break;
      }
      if (!queue.Push(std::move(elements))) break;
    }
    reader.Close();
    queue.MarkDone(std::move(final_status));
  }

  bool NextParallel(std::vector<ElementPtr>* out, size_t max) {
    while (true) {
      if (pending_pos_ < pending_.size()) {
        size_t n = std::min(max, pending_.size() - pending_pos_);
        for (size_t i = 0; i < n; ++i) {
          out->push_back(std::move(pending_[pending_pos_ + i]));
        }
        pending_pos_ += n;
        if (pending_pos_ >= pending_.size()) {
          pending_.clear();
          pending_pos_ = 0;
        }
        return true;
      }
      if (queue_pos_ >= queues_.size()) return false;
      std::vector<ElementPtr> block;
      if (!queues_[queue_pos_]->Pop(&block)) {
        Status st = queues_[queue_pos_]->TakeStatus();
        if (!st.ok()) {
          status_ = std::move(st);
          return false;
        }
        ++queue_pos_;  // table drained; move to the next in order
        continue;
      }
      if (governor::QueryContext* qctx = governor::CurrentQueryContext()) {
        qctx->ReleaseMemory(block.size() * governor::kApproxElementBytes);
      }
      pending_ = std::move(block);
      pending_pos_ = 0;
    }
  }

  SqlDialect* dialect_;
  const std::vector<Table>* tables_;
  LookupSpec spec_;
  std::vector<TableJob> jobs_;
  Status status_ = Status::OK();
  bool closed_ = false;

  // Serial state.
  size_t job_pos_ = 0;
  std::optional<TableReader<Table>> reader_;

  // Parallel state.
  bool parallel_mode_ = false;
  std::atomic<bool> cancel_{false};
  std::vector<std::unique_ptr<BlockQueue<ElementPtr>>> queues_;
  std::thread coordinator_;
  size_t queue_pos_ = 0;
  std::vector<ElementPtr> pending_;
  size_t pending_pos_ = 0;
};

}  // namespace

template <typename Table, typename Stream>
Result<std::unique_ptr<Stream>> Db2GraphProvider::StreamTables(
    const std::vector<Table>& tables, const LookupSpec& spec) {
  std::vector<TableJob> jobs;
  DB2G_RETURN_NOT_OK(PlanJobs(tables, spec, /*subset=*/nullptr,
                              /*aggregate=*/false, options_, &stats_, &jobs));
  const bool parallel = BeginFanOut(jobs.size());
  return std::unique_ptr<Stream>(new Db2ElementStream<Table>(
      dialect_, &tables, spec, std::move(jobs), parallel));
}

// ----------------------------------------------------------------------
// Vertices
// ----------------------------------------------------------------------

Status Db2GraphProvider::Vertices(const LookupSpec& spec,
                                  std::vector<VertexPtr>* out) {
  const bool cache_on = CacheUsable(spec);
  uint64_t epoch = 0;
  if (cache_on) {
    // Epoch read *before* the lookup: a write racing with the fetch makes
    // the entry stale-by-construction rather than stale-but-current.
    epoch = dialect_->db()->write_epoch();
    std::vector<VertexPtr> cached;
    if (cache_->Get(spec.ids[0], epoch, &cached)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (QueryTrace* trace = CurrentTrace()) trace->AddCacheHit();
      for (VertexPtr& v : cached) {
        if (gremlin::MatchesSpec(*v, spec)) out->push_back(std::move(v));
      }
      return Status::OK();
    }
    stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    if (QueryTrace* trace = CurrentTrace()) trace->AddCacheMiss();
  }

  std::vector<VertexPtr> fetched;
  DB2G_RETURN_NOT_OK(
      FetchTables(topology_.vertex_tables(), spec, nullptr, &fetched));
  if (cache_on && CacheFillEligible(spec)) {
    // Every surviving table was consulted and nothing was filtered, so
    // `fetched` is the complete vertex set for this id (possibly empty —
    // a cached negative).
    cache_->Put(spec.ids[0], fetched, epoch);
  }
  for (VertexPtr& v : fetched) out->push_back(std::move(v));
  return Status::OK();
}

Result<std::unique_ptr<gremlin::VertexStream>>
Db2GraphProvider::VerticesStreaming(const LookupSpec& spec) {
  // Cache-eligible point lookups answer from (and fill) the vertex cache
  // in Vertices(); the base class chunks that result.
  if (CacheUsable(spec)) return GraphProvider::VerticesStreaming(spec);
  return StreamTables<ResolvedVertexTable, gremlin::VertexStream>(
      topology_.vertex_tables(), spec);
}

Result<Value> Db2GraphProvider::AggregateVertices(const LookupSpec& spec) {
  return AggregateTables(topology_.vertex_tables(), spec);
}

// ----------------------------------------------------------------------
// Edges
// ----------------------------------------------------------------------

Status Db2GraphProvider::Edges(const LookupSpec& spec,
                               std::vector<EdgePtr>* out) {
  return FetchTables(topology_.edge_tables(), spec, nullptr, out);
}

Result<std::unique_ptr<gremlin::EdgeStream>> Db2GraphProvider::EdgesStreaming(
    const LookupSpec& spec) {
  return StreamTables<ResolvedEdgeTable, gremlin::EdgeStream>(
      topology_.edge_tables(), spec);
}

Result<Value> Db2GraphProvider::AggregateEdges(const LookupSpec& spec) {
  return AggregateTables(topology_.edge_tables(), spec);
}

// ----------------------------------------------------------------------
// Adjacency with endpoint-table pruning
// ----------------------------------------------------------------------

Status Db2GraphProvider::AdjacentEdges(const std::vector<VertexPtr>& from,
                                       Direction dir, const LookupSpec& spec,
                                       std::vector<EdgePtr>* out) {
  std::vector<Value> ids;
  ids.reserve(from.size());
  for (const VertexPtr& v : from) ids.push_back(v->id);
  // Candidate edge tables: drop those whose declared endpoint vertex table
  // cannot contain any anchor.
  const std::unordered_set<std::string> source_tables = SourceTables(from);
  QueryTrace* trace = CurrentTrace();
  std::vector<int> candidates;
  for (size_t ti = 0; ti < topology_.edge_tables().size(); ++ti) {
    const ResolvedEdgeTable& t = topology_.edge_tables()[ti];
    if (options_.endpoint_table_pruning &&
        !EndpointCanHold(topology_, t, dir, source_tables)) {
      stats_.edge_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(t.conf.table_name);
      continue;
    }
    candidates.push_back(static_cast<int>(ti));
  }

  LookupSpec edge_spec = spec;
  (dir == Direction::kIn ? edge_spec.dst_ids : edge_spec.src_ids) =
      std::move(ids);
  DB2G_RETURN_NOT_OK(
      FetchTables(topology_.edge_tables(), edge_spec, &candidates, out));
  if (dir != Direction::kBoth) return Status::OK();
  // Both directions: the in-edges follow, minus the self-loops the
  // out-edges already hold.
  edge_spec.dst_ids = std::move(edge_spec.src_ids);
  edge_spec.src_ids.clear();
  std::vector<EdgePtr> in_edges;
  DB2G_RETURN_NOT_OK(
      FetchTables(topology_.edge_tables(), edge_spec, &candidates, &in_edges));
  for (EdgePtr& e : in_edges) {
    if (!(e->src_id == e->dst_id)) out->push_back(std::move(e));
  }
  return Status::OK();
}

Status Db2GraphProvider::EdgeEndpoints(const std::vector<EdgePtr>& edges,
                                       Direction endpoint,
                                       const LookupSpec& spec,
                                       std::vector<VertexPtr>* out) {
  // Downstream the interpreter joins endpoints back to edges through an
  // id-keyed map, so result order here is free — cache hits can be
  // emitted immediately during classification.
  const bool cache_on = cache_ != nullptr && options_.vertex_cache &&
                        spec.agg == AggOp::kNone && !spec.has_projection &&
                        !dialect_->db()->access_control_enabled();
  uint64_t epoch = cache_on ? dialect_->db()->write_epoch() : 0;
  // The pinned paths below replace spec.ids with the endpoint ids, so
  // cached vertices are filtered against labels/predicates only; ids the
  // spec asks for (a hasId() folded into out()/in()) filter the endpoints
  // up front instead.
  LookupSpec cached_check = spec;
  cached_check.ids.clear();

  // Partition endpoint ids by the vertex table they are pinned to.
  std::map<int, std::vector<Value>> pinned;  // vertex table -> ids
  std::vector<Value> unpinned;
  std::unordered_set<Value, ValueHash> seen;

  auto classify = [&](const EdgePtr& e, bool source_side) -> bool {
    const Value& id = source_side ? e->src_id : e->dst_id;
    if (!spec.ids.empty() &&
        std::find(spec.ids.begin(), spec.ids.end(), id) == spec.ids.end()) {
      return true;
    }
    if (!seen.insert(id).second) return true;  // already handled
    const auto* prov = static_cast<const RowProvenance*>(e->provenance.get());
    int vertex_table = -1;
    if (prov != nullptr && options_.endpoint_table_pruning) {
      const ResolvedEdgeTable& t = topology_.edge_tables()[prov->table_index];
      vertex_table =
          source_side ? t.src_vertex_table : t.dst_vertex_table;
      // The vertex-table-is-also-edge-table shortcut: when the pinned
      // vertex table IS the edge's own table, the vertex's columns are in
      // the very row we already fetched — construct it without SQL.
      if (vertex_table >= 0 && options_.vertex_from_edge_shortcut) {
        const ResolvedVertexTable& vt =
            topology_.vertex_tables()[vertex_table];
        if (EqualsIgnoreCase(vt.conf.table_name, t.conf.table_name) &&
            prov->row.size() == vt.schema->columns.size()) {
          VertexPtr v = BuildVertexFromFetched(
              vt, vertex_table, FullRowLayout(*vt.schema), prov->row);
          if (gremlin::MatchesSpec(*v, spec)) {
            out->push_back(std::move(v));
          }
          stats_.shortcut_vertices.fetch_add(1, std::memory_order_relaxed);
          if (QueryTrace* trace = CurrentTrace()) {
            trace->AddShortcutVertices(1);
          }
          return true;
        }
      }
    }
    if (cache_on) {
      std::vector<VertexPtr> cached;
      if (cache_->Get(id, epoch, &cached)) {
        stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (QueryTrace* trace = CurrentTrace()) trace->AddCacheHit();
        for (VertexPtr& v : cached) {
          if (gremlin::MatchesSpec(*v, cached_check)) {
            out->push_back(std::move(v));
          }
        }
        return true;
      }
      stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      if (QueryTrace* trace = CurrentTrace()) trace->AddCacheMiss();
    }
    if (vertex_table >= 0) {
      pinned[vertex_table].push_back(id);
    } else {
      unpinned.push_back(id);
    }
    return true;
  };

  for (const EdgePtr& e : edges) {
    if (endpoint == Direction::kOut || endpoint == Direction::kBoth) {
      classify(e, /*source_side=*/true);
    }
    if (endpoint == Direction::kIn || endpoint == Direction::kBoth) {
      classify(e, /*source_side=*/false);
    }
  }

  // One job per pinned vertex table, in table-index order so the merge
  // (and any trace) is deterministic under fan-out; each job looks up
  // only the endpoint ids pinned to its table.
  std::vector<TableJob> jobs;
  std::vector<LookupSpec> job_specs;
  for (auto& [vertex_table, ids] : pinned) {
    LookupSpec vertex_spec = spec;
    vertex_spec.ids = std::move(ids);
    const std::vector<int> only = {vertex_table};
    const size_t planned = jobs.size();
    DB2G_RETURN_NOT_OK(PlanJobs(topology_.vertex_tables(), vertex_spec, &only,
                                /*aggregate=*/false, options_, &stats_,
                                &jobs));
    if (jobs.size() > planned) job_specs.push_back(std::move(vertex_spec));
  }
  DB2G_RETURN_NOT_OK(RunInOrder<VertexPtr>(
      jobs.size(),
      [&](size_t j, std::vector<VertexPtr>* slot) {
        return DrainTable(dialect_,
                          topology_.vertex_tables()[jobs[j].table_index],
                          jobs[j], job_specs[j], slot);
      },
      out));

  if (!unpinned.empty()) {
    LookupSpec vertex_spec = spec;
    vertex_spec.ids = std::move(unpinned);
    DB2G_RETURN_NOT_OK(Vertices(vertex_spec, out));
  }
  return Status::OK();
}

// ----------------------------------------------------------------------
// Multi-hop collapsed traversal
// ----------------------------------------------------------------------

namespace {

/// True when `chain` has `hops` hops, every one of them on a table of
/// `topology`.
bool ChainFits(const JoinChainPlan& chain, const overlay::Topology& topology,
               size_t hops) {
  if (chain.edge_tables.size() != hops ||
      chain.vertex_tables.size() != hops ||
      chain.layouts.size() != 2 * hops) {
    return false;
  }
  for (size_t h = 0; h < hops; ++h) {
    if (chain.edge_tables[h] < 0 ||
        static_cast<size_t>(chain.edge_tables[h]) >=
            topology.edge_tables().size() ||
        chain.vertex_tables[h] < 0 ||
        static_cast<size_t>(chain.vertex_tables[h]) >=
            topology.vertex_tables().size()) {
      return false;
    }
  }
  return true;
}

/// The chain's stages with `e0` — hop 1's edge stage planned with the
/// execution's source ids — in front.
std::vector<JoinStage> StagesWith(const JoinChainPlan& chain, JoinStage e0) {
  std::vector<JoinStage> stages = chain.stages;
  stages[0] = std::move(e0);
  return stages;
}

/// Sub-row of one stage in the joined result row.
Row StageRow(const Row& row, const JoinChainPlan::StageLayout& stage) {
  return Row(row.begin() + static_cast<ptrdiff_t>(stage.offset),
             row.begin() + static_cast<ptrdiff_t>(
                               stage.offset + stage.layout.schema_cols.size()));
}

/// The edge id BuildEdgeFromFetched would assign for this edge row.
Value ComposeEdgeId(const ResolvedEdgeTable& et, const FetchLayout& layout,
                    const Row& erow) {
  if (!et.conf.implicit_edge_id) return ComposeField(et.id, layout, erow);
  return ImplicitEdgeId(ComposeField(et.src_v, layout, erow),
                        FetchedLabel(et, layout, erow),
                        ComposeField(et.dst_v, layout, erow));
}

}  // namespace

Status Db2GraphProvider::MultiHopTraverse(
    const gremlin::MultiHopSources& sources, const gremlin::MultiHopSpec& spec,
    gremlin::MultiHopResult* out) {
  auto plan = std::static_pointer_cast<const MultiHopProviderPlan>(
      spec.provider_plan);
  auto decline = [&](const char* why) {
    if (plan != nullptr) {
      if (auto log = plan->log.lock()) {
        log->RecordExecution(plan->decision_id, 0, /*fell_back=*/true);
      }
    }
    return Status::Unsupported(why);
  };
  if (plan == nullptr || spec.hops.empty() || plan->chains.empty() ||
      !options_.endpoint_table_pruning) {
    return decline("no executable multi-hop plan");
  }
  for (const JoinChainPlan& chain : plan->chains) {
    if (!ChainFits(chain, topology_, spec.hops.size())) {
      return decline("multi-hop plan references unknown tables");
    }
  }
  if (sources.ids.empty()) return Status::OK();

  // Hop 1 repeats the step-at-a-time endpoint handling exactly: the
  // source ids become endpoint conditions (pinning tables by id as any
  // edge lookup does), and the sources' tables, when known, drive the
  // same endpoint pruning AdjacentEdges would apply.
  const gremlin::MultiHopHop& first = spec.hops[0];
  LookupSpec espec = first.edge_spec;
  (first.direction == Direction::kOut ? espec.src_ids : espec.dst_ids) =
      sources.ids;

  QueryTrace* trace = CurrentTrace();
  const bool counting = spec.agg == AggOp::kCount;
  // From a single source every walk is that source's: count ungrouped.
  const bool ungrouped = counting && sources.ids.size() == 1;
  const size_t hops = spec.hops.size();
  uint64_t total = 0;  // walks emitted (or counted), for sysmon.optimizer
  for (const JoinChainPlan& chain : plan->chains) {
    const ResolvedEdgeTable& et =
        topology_.edge_tables()[static_cast<size_t>(chain.edge_tables[0])];
    if (!EndpointCanHold(topology_, et, first.direction, sources.tables)) {
      continue;  // no source can live in this chain's near table
    }
    TablePlan ep = PlanEdgeTable(et, espec, options_);
    if (ep.client_filter) return decline("multi-hop edge plan not pushable");
    if (ep.skip) {
      stats_.edge_tables_pruned.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->AddTablePruned(et.conf.table_name);
      continue;
    }
    JoinStage e0{et.conf.table_name, "e0", std::move(ep.conds)};
    SetCondAlias(&e0.conds, e0.alias);

    stats_.edge_tables_queried.fetch_add(1, std::memory_order_relaxed);
    for (size_t s = 0; s < chain.stages.size(); ++s) {
      if (trace != nullptr) trace->AddTableConsulted(chain.stages[s].table);
      dialect_->RecordPattern(chain.stages[s].table,
                              s == 0 ? ep.predicate_columns
                                     : chain.patterns[s]);
    }
    static const std::string kCountStar = "COUNT(*)";
    static const std::string kNoGroups;
    const std::string& select = ungrouped ? kCountStar : chain.select;
    const std::string& group_by = ungrouped ? kNoGroups : chain.group_by;
    std::vector<Value> params;
    CollectParams(e0.conds, &params);
    params.insert(params.end(), chain.rest_params.begin(),
                  chain.rest_params.end());
    Result<std::unique_ptr<DialectRowStream>> stream =
        dialect_->QueryShapedStreaming(
            JoinShapeKey(select, group_by,
                         JoinStageKey(e0) + chain.rest_key),
            [&] {
              std::vector<Value> ignored;
              return BuildJoinSql(StagesWith(chain, e0), select, group_by,
                                  &ignored);
            },
            params);
    if (!stream.ok()) return stream.status();

    const ResolvedField& near0 = first.direction == Direction::kOut
                                     ? et.src_v
                                     : et.dst_v;
    sql::RowBlock block;
    while ((*stream)->Next(&block)) {
      Status governed = governor::CheckCurrent();
      if (!governed.ok()) {
        (*stream)->Close();
        return governed;
      }
      for (Row& row : block.rows) {
        if (counting) {
          // The source key columns (none when ungrouped), then COUNT(*).
          int64_t walks = row.back().as_int();
          out->counts[ungrouped ? sources.ids[0]
                                : ComposeField(near0, chain.key_layout,
                                               row)] += walks;
          total += static_cast<uint64_t>(walks);
          continue;
        }
        Row e0row = StageRow(row, chain.layouts[0]);
        gremlin::MultiHopEmission emission;
        emission.source = ComposeField(near0, chain.layouts[0].layout, e0row);
        for (size_t h = 0; h < hops; ++h) {
          const JoinChainPlan::StageLayout& estage = chain.layouts[2 * h];
          const ResolvedEdgeTable& het =
              topology_.edge_tables()[static_cast<size_t>(
                  chain.edge_tables[h])];
          const bool outward =
              spec.hops[h].direction == Direction::kOut;
          Row erow = h == 0 ? e0row : StageRow(row, estage);
          if (spec.hops[h].emit_edge_id) {
            emission.path_ids.push_back(
                ComposeEdgeId(het, estage.layout, erow));
          }
          // The hop's vertex id enters the path as the edge row's far
          // endpoint value — exactly the value step-at-a-time emission
          // uses (the join guarantees it matches the vertex row's id).
          const ResolvedField& farf = outward ? het.dst_v : het.src_v;
          emission.path_ids.push_back(
              ComposeField(farf, estage.layout, erow));
          if (h + 1 == hops) {
            const JoinChainPlan::StageLayout& vstage =
                chain.layouts[2 * h + 1];
            const int vt = chain.vertex_tables[h];
            emission.vertex = BuildVertexFromFetched(
                topology_.vertex_tables()[static_cast<size_t>(vt)], vt,
                vstage.layout, StageRow(row, vstage));
          }
        }
        ++total;
        out->walks.push_back(std::move(emission));
      }
    }
    if (!(*stream)->status().ok()) return (*stream)->status();
  }

  if (auto log = plan->log.lock()) {
    log->RecordExecution(plan->decision_id, total, /*fell_back=*/false);
  }
  return Status::OK();
}

// ----------------------------------------------------------------------
// Compile-time plan previews (Explain)
// ----------------------------------------------------------------------

namespace {

// Stands in for an id whose value arrives at run time (the endpoint ids
// of fetched edges): previews keep it as a "?" marker.
const Value& RuntimeIdMarker() {
  static const Value marker(std::string("\x01runtime id"));
  return marker;
}

// Adds the condition a lookup by (runtime) ids puts on `t`'s id, where
// PlanIdConds puts it: after the label condition, or as the first
// OR-group for a composite id.
template <typename Table>
void AddRuntimeIdCond(const Table& t, QueryConds* conds) {
  const sql::TableSchema& schema = *t.schema;
  if (t.id.column_indexes.size() == 1) {
    SqlCond cond;
    cond.column = schema.columns[t.id.column_indexes[0]].name;
    cond.op = "IN";
    cond.params = {RuntimeIdMarker()};
    conds->conjuncts.insert(
        conds->conjuncts.begin() +
            static_cast<ptrdiff_t>(
                JoinCondPosition(*conds, schema, t.label_column)),
        std::move(cond));
    return;
  }
  std::vector<SqlCond> conjunction;
  for (size_t ci : t.id.column_indexes) {
    SqlCond cond;
    cond.column = schema.columns[ci].name;
    cond.op = "=";
    cond.params = {RuntimeIdMarker()};
    conjunction.push_back(std::move(cond));
  }
  conds->or_groups.insert(conds->or_groups.begin(), {std::move(conjunction)});
}

// SqlDialect::RenderSql, except that runtime id markers stay "?".
std::string RenderPreviewSql(const std::string& sql,
                             const std::vector<Value>& params) {
  std::string out;
  size_t next = 0;
  for (char c : sql) {
    if (c == '?' && next < params.size()) {
      const Value& p = params[next++];
      out += p == RuntimeIdMarker() ? "?" : p.ToSqlLiteral();
    } else {
      out += c;
    }
  }
  return out;
}

// Previews `spec` against the tables of one kind without touching data,
// counters or the trace: each table's BuildStatement statement, its
// predicted access path, and the table cardinality. An aggregate previews
// its per-table aggregate statements unless some table filters
// client-side; execution then declines the pushdown and fetches rows.
// `subset` (table indexes, ascending) limits the preview to the tables a
// lookup can reach; `runtime_ids` adds the id condition of a lookup whose
// ids are only known at run time.
template <typename Table>
void PreviewTables(const sql::Database* db, const std::vector<Table>& tables,
                   const LookupSpec& spec, const RuntimeOptions& options,
                   const std::vector<int>* subset, bool runtime_ids,
                   std::vector<Db2GraphProvider::SqlPreview>* out) {
  std::vector<int> indexes;
  if (subset != nullptr) {
    indexes = *subset;
  } else {
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      indexes.push_back(static_cast<int>(ti));
    }
  }
  std::vector<TablePlan> plans;
  plans.reserve(indexes.size());
  bool aggregate = spec.agg != AggOp::kNone;
  for (int ti : indexes) {
    plans.push_back(TableKind<Table>::Plan(tables[ti], spec, options));
    TablePlan& plan = plans.back();
    if (runtime_ids && !plan.skip && !plan.client_filter) {
      AddRuntimeIdCond(tables[ti], &plan.conds);
    }
    aggregate &= !plan.client_filter;
  }
  for (size_t i = 0; i < indexes.size(); ++i) {
    const Table& t = tables[indexes[i]];
    Db2GraphProvider::SqlPreview preview;
    preview.table = t.conf.table_name;
    preview.table_index = indexes[i];
    const sql::Table* base = db->GetTable(t.conf.table_name);
    preview.estimated_rows = base != nullptr ? base->row_count() : 0;
    std::optional<TableStatement> q;
    if (!plans[i].skip) q = BuildStatement(t, spec, plans[i], aggregate);
    if (q) {
      preview.sql = RenderPreviewSql(q->Sql(), q->params);
      preview.access_path =
          PredictAccessPath(db, t.conf.table_name, *q->conds);
    } else {
      preview.pruned = true;
      preview.access_path = "pruned";
    }
    out->push_back(std::move(preview));
  }
}

}  // namespace

Status Db2GraphProvider::ExplainVertices(const LookupSpec& spec,
                                         std::vector<SqlPreview>* out) const {
  PreviewTables(dialect_->db(), topology_.vertex_tables(), spec, options_,
                /*subset=*/nullptr, /*runtime_ids=*/false, out);
  return Status::OK();
}

Status Db2GraphProvider::ExplainEdges(const LookupSpec& spec,
                                      std::vector<SqlPreview>* out) const {
  PreviewTables(dialect_->db(), topology_.edge_tables(), spec, options_,
                /*subset=*/nullptr, /*runtime_ids=*/false, out);
  return Status::OK();
}

Status Db2GraphProvider::ExplainEndpoints(const std::vector<int>* edge_tables,
                                          Direction endpoint,
                                          const LookupSpec& spec,
                                          std::vector<SqlPreview>* out) const {
  // The tables EdgeEndpoints reaches: each edge table's pinned endpoint
  // table, except where the vertex-from-edge shortcut builds the vertex
  // from the edge row itself; an unpinned endpoint (or endpoint pruning
  // off) sends the ids to every vertex table.
  const auto& etables = topology_.edge_tables();
  const auto& vtables = topology_.vertex_tables();
  std::vector<bool> reached(vtables.size(), !options_.endpoint_table_pruning);
  auto reach = [&](const ResolvedEdgeTable& et, int vertex_table) {
    if (vertex_table < 0) {
      reached.assign(vtables.size(), true);
    } else if (!options_.vertex_from_edge_shortcut ||
               !EqualsIgnoreCase(vtables[vertex_table].conf.table_name,
                                 et.conf.table_name)) {
      reached[static_cast<size_t>(vertex_table)] = true;
    }
  };
  const size_t n = edge_tables != nullptr ? edge_tables->size() : etables.size();
  for (size_t i = 0; i < n; ++i) {
    const ResolvedEdgeTable& et =
        etables[edge_tables != nullptr ? (*edge_tables)[i] : i];
    if (endpoint != Direction::kIn) reach(et, et.src_vertex_table);
    if (endpoint != Direction::kOut) reach(et, et.dst_vertex_table);
  }
  std::vector<int> subset;
  for (size_t vi = 0; vi < vtables.size(); ++vi) {
    if (reached[vi]) subset.push_back(static_cast<int>(vi));
  }
  // Ids the spec asks for (a hasId() folded into out()/in()) bound the
  // endpoint ids the fetch can look up, so they preview as the ids.
  PreviewTables(dialect_->db(), vtables, spec, options_, &subset,
                /*runtime_ids=*/spec.ids.empty(), out);
  return Status::OK();
}

Status Db2GraphProvider::ExplainMultiHop(const gremlin::MultiHopSpec& spec,
                                         const std::vector<Value>& source_ids,
                                         std::vector<SqlPreview>* out) const {
  auto plan = std::static_pointer_cast<const MultiHopProviderPlan>(
      spec.provider_plan);
  if (plan == nullptr || spec.hops.empty()) return Status::OK();
  const gremlin::MultiHopHop& first = spec.hops[0];
  LookupSpec espec = first.edge_spec;
  (first.direction == Direction::kOut ? espec.src_ids : espec.dst_ids) =
      source_ids;
  const bool ungrouped = spec.agg == AggOp::kCount && source_ids.size() == 1;
  for (const JoinChainPlan& chain : plan->chains) {
    if (!ChainFits(chain, topology_, spec.hops.size())) continue;
    const ResolvedEdgeTable& et =
        topology_.edge_tables()[static_cast<size_t>(chain.edge_tables[0])];
    SqlPreview preview;
    TablePlan ep = PlanEdgeTable(et, espec, options_);
    if (ep.skip || ep.client_filter) {
      preview.table = et.conf.table_name;
      preview.pruned = true;
      preview.access_path = "pruned";
      out->push_back(std::move(preview));
      continue;
    }
    JoinStage e0{et.conf.table_name, "e0", std::move(ep.conds)};
    SetCondAlias(&e0.conds, e0.alias);
    std::vector<std::string> chain_tables;
    chain_tables.reserve(chain.stages.size());
    for (const JoinStage& stage : chain.stages) {
      chain_tables.push_back(stage.table);
    }
    preview.table = Join(chain_tables, ">");
    std::vector<Value> params;
    std::string sql =
        BuildJoinSql(StagesWith(chain, std::move(e0)),
                     ungrouped ? "COUNT(*)" : chain.select,
                     ungrouped ? "" : chain.group_by, &params);
    preview.sql = SqlDialect::RenderSql(sql, params);
    preview.access_path =
        "multi-hop join (" + std::to_string(chain.stages.size()) + " stages" +
        (spec.agg != AggOp::kCount ? ")"
         : ungrouped               ? ", count)"
                                   : ", grouped count)");
    preview.estimated_rows = spec.est_rows;
    out->push_back(std::move(preview));
  }
  return Status::OK();
}

}  // namespace db2graph::core
