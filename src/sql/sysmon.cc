#include "sql/sysmon.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/workload_governor.h"
#include "sql/database.h"
#include "sql/schema.h"
#include "sql/table.h"
#include "sql/virtual_table.h"

namespace db2graph::sql {

namespace {

ColumnDef Col(const char* name, ColumnType type) {
  ColumnDef def;
  def.name = name;
  def.type = type;
  return def;
}

TableSchema Schema(const char* name, std::vector<ColumnDef> columns) {
  TableSchema schema;
  schema.name = name;
  schema.columns = std::move(columns);
  return schema;
}

Value U64(uint64_t v) { return Value(static_cast<int64_t>(v)); }

VirtualTableDef QueryLogTable() {
  VirtualTableDef def;
  def.schema = Schema("sysmon.query_log",
                      {Col("id", ColumnType::kInt),
                       Col("layer", ColumnType::kString),
                       Col("script", ColumnType::kString),
                       Col("plan_source", ColumnType::kString),
                       Col("exec_mode", ColumnType::kString),
                       Col("access_path", ColumnType::kString),
                       Col("rows_scanned", ColumnType::kInt),
                       Col("rows_emitted", ColumnType::kInt),
                       Col("dop", ColumnType::kInt),
                       Col("morsels", ColumnType::kInt),
                       Col("collapsed_hops", ColumnType::kInt),
                       Col("micros", ColumnType::kInt),
                       Col("error", ColumnType::kBool),
                       Col("error_message", ColumnType::kString),
                       Col("reason", ColumnType::kString),
                       Col("plan", ColumnType::kString)});
  def.fill = [](Table* out) -> Status {
    for (const QueryLog::Entry& e : QueryLog::Global().Entries()) {
      DB2G_RETURN_NOT_OK(
          out->Insert({U64(e.id), e.layer, e.script, e.plan_source,
                       e.exec_mode, e.access_path, U64(e.rows_scanned),
                       U64(e.rows_emitted), U64(e.dop), U64(e.morsels),
                       U64(e.collapsed_hops), U64(e.micros), e.error,
                       e.error_message, e.reason, e.plan})
              .status());
    }
    return Status::OK();
  };
  return def;
}

VirtualTableDef MetricsTable() {
  VirtualTableDef def;
  def.schema = Schema("sysmon.metrics",
                      {Col("name", ColumnType::kString),
                       Col("kind", ColumnType::kString),
                       Col("value", ColumnType::kInt),
                       Col("sum", ColumnType::kInt),
                       Col("p50", ColumnType::kInt),
                       Col("p95", ColumnType::kInt),
                       Col("p99", ColumnType::kInt)});
  def.fill = [](Table* out) -> Status {
    for (const metrics::MetricsRegistry::Sample& s :
         metrics::MetricsRegistry::Global().Snapshot()) {
      DB2G_RETURN_NOT_OK(out->Insert({s.name, s.kind, Value(s.value),
                                      U64(s.sum), U64(s.p50), U64(s.p95),
                                      U64(s.p99)})
                             .status());
    }
    return Status::OK();
  };
  return def;
}

// The slow-query view: the query_log entries that crossed the threshold
// and therefore carry their trace.
VirtualTableDef SlowQueriesTable() {
  VirtualTableDef def;
  def.schema = Schema("sysmon.slow_queries",
                      {Col("script", ColumnType::kString),
                       Col("elapsed_micros", ColumnType::kInt),
                       Col("rows_scanned", ColumnType::kInt),
                       Col("rows_emitted", ColumnType::kInt),
                       Col("reason", ColumnType::kString),
                       Col("trace_json", ColumnType::kString)});
  def.fill = [](Table* out) -> Status {
    for (const QueryLog::Entry& e : QueryLog::Global().Entries()) {
      if (e.trace_json.empty()) continue;
      DB2G_RETURN_NOT_OK(out->Insert({e.script, U64(e.micros),
                                      U64(e.rows_scanned),
                                      U64(e.rows_emitted), e.reason,
                                      e.trace_json})
                             .status());
    }
    return Status::OK();
  };
  return def;
}

// The workload governor's live view: one row per governed query currently
// executing, with its elapsed time, progress, and budgets — the id column
// is what GremlinService::KillQuery takes.
VirtualTableDef ActiveQueriesTable() {
  VirtualTableDef def;
  def.schema = Schema("sysmon.active_queries",
                      {Col("id", ColumnType::kInt),
                       Col("script", ColumnType::kString),
                       Col("elapsed_micros", ColumnType::kInt),
                       Col("rows_produced", ColumnType::kInt),
                       Col("timeout_ms", ColumnType::kInt),
                       Col("max_result_rows", ColumnType::kInt),
                       Col("max_memory_bytes", ColumnType::kInt),
                       Col("memory_used", ColumnType::kInt)});
  def.fill = [](Table* out) -> Status {
    for (const std::shared_ptr<governor::QueryContext>& q :
         governor::ActiveQueryRegistry::Global().Snapshot()) {
      DB2G_RETURN_NOT_OK(
          out->Insert({U64(q->id()), q->script(), U64(q->elapsed_micros()),
                       U64(q->rows_produced()),
                       Value(q->limits().timeout_ms),
                       Value(q->limits().max_result_rows),
                       Value(q->limits().max_memory_bytes),
                       U64(q->memory_used())})
              .status());
    }
    return Status::OK();
  };
  return def;
}

VirtualTableDef ColumnStatsTable(Database* db) {
  VirtualTableDef def;
  def.schema = Schema("sysmon.column_stats",
                      {Col("table_name", ColumnType::kString),
                       Col("column_name", ColumnType::kString),
                       Col("type", ColumnType::kString),
                       Col("rows", ColumnType::kInt),
                       Col("nulls", ColumnType::kInt),
                       Col("ndv", ColumnType::kInt),
                       Col("min", ColumnType::kString),
                       Col("max", ColumnType::kString)});
  // The fill runs under the database read lock (scans always do); the
  // catalog accessors re-enter it, which the per-thread lock depth allows.
  def.fill = [db](Table* out) -> Status {
    for (const std::string& name : db->TableNames()) {
      const Table* table = db->GetTable(name);
      if (table == nullptr) continue;
      const TableSchema& schema = table->schema();
      for (size_t c = 0; c < schema.columns.size(); ++c) {
        Table::ColumnStats stats = table->GetColumnStats(c);
        Value min = stats.min.is_null() ? Value() : Value(stats.min.ToString());
        Value max = stats.max.is_null() ? Value() : Value(stats.max.ToString());
        DB2G_RETURN_NOT_OK(
            out->Insert({name, schema.columns[c].name,
                         ColumnTypeName(schema.columns[c].type),
                         U64(stats.row_count), U64(stats.null_count),
                         U64(stats.ndv), std::move(min), std::move(max)})
                .status());
      }
    }
    return Status::OK();
  };
  return def;
}

}  // namespace

void RegisterSysmonTables(Database* db) {
  db->RegisterVirtualTable(QueryLogTable());
  db->RegisterVirtualTable(MetricsTable());
  db->RegisterVirtualTable(SlowQueriesTable());
  db->RegisterVirtualTable(ActiveQueriesTable());
  db->RegisterVirtualTable(ColumnStatsTable(db));
}

}  // namespace db2graph::sql
