// Copyright (c) 2026 The db2graph-repro Authors.
//
// The SYSMON monitoring catalog: read-only virtual tables exposing the
// engine's own observability state through plain SQL (the scaled-down
// counterpart of Db2's SYSIBMADM / MON_GET_* monitoring views). Each
// table materializes a point-in-time snapshot at scan time:
//
//   sysmon.query_log    recent executions from the process QueryLog ring
//   sysmon.metrics      every counter/gauge/histogram in the global
//                       MetricsRegistry
//   sysmon.slow_queries the query_log entries that crossed the slow-query
//                       threshold, each with its trace
//   sysmon.column_stats live per-column statistics of every base table
//
// Because they are ordinary catalog relations, they compose with the rest
// of the engine: joins, WHERE, aggregation, the vectorized path, the graph
// overlay, and Gremlin's graphQuery() all work unchanged. The core layer
// additionally registers sysmon.plan_cache (it owns the PlanCache).

#ifndef DB2GRAPH_SQL_SYSMON_H_
#define DB2GRAPH_SQL_SYSMON_H_

namespace db2graph::sql {

class Database;

/// Registers the SQL-layer SYSMON virtual tables on `db`. Idempotent
/// (re-registration replaces the definitions). Called by the Database
/// constructor, so every database exposes the catalog out of the box.
void RegisterSysmonTables(Database* db);

}  // namespace db2graph::sql

#endif  // DB2GRAPH_SQL_SYSMON_H_
