// Copyright (c) 2026 The db2graph-repro Authors.
//
// SYSMON monitoring catalog coverage: the virtual tables are ordinary
// relations (plain SELECT, WHERE, aggregation, vectorized execution, the
// Gremlin entry point feeds them), sysmon.query_log reflects live engine
// state, EXPLAIN ANALYZE reports per-operator actuals that match the
// ExecInfo totals, and ExecConfig::profile attaches plans to the log.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "core/db2graph.h"
#include "sql/database.h"

namespace db2graph::sql {
namespace {

class SysmonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryLog::Global().SetEnabled(true);
    QueryLog::Global().Clear();
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE items (id BIGINT PRIMARY KEY, name VARCHAR(20),
                          price BIGINT);
      INSERT INTO items VALUES (1, 'apple', 10), (2, 'pear', 20),
                               (3, 'plum', NULL), (4, 'fig', 40);
    )sql")
                    .ok());
  }

  ResultSet Run(const std::string& sql) {
    Result<ResultSet> rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
    return rs.ok() ? *rs : ResultSet{};
  }

  Database db_;
};

TEST_F(SysmonTest, CatalogListsVirtualTables) {
  std::vector<std::string> names = db_.VirtualTableNames();
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("sysmon.query_log"));
  EXPECT_TRUE(has("sysmon.metrics"));
  EXPECT_TRUE(has("sysmon.slow_queries"));
  EXPECT_TRUE(has("sysmon.column_stats"));
}

TEST_F(SysmonTest, QueryLogReturnsRecentExecutions) {
  Run("SELECT name FROM items WHERE price > 15");
  ResultSet rs = Run(
      "SELECT script, exec_mode, access_path, rows_scanned, rows_emitted "
      "FROM sysmon.query_log WHERE layer = 'sql'");
  // Setup recorded CREATE + INSERT; then the SELECT above.
  ASSERT_GE(rs.rows.size(), 3u);
  const Row* select_row = nullptr;
  for (const Row& row : rs.rows) {
    if (row[0].as_string() == "SELECT FROM items") select_row = &row;
  }
  ASSERT_NE(select_row, nullptr);
  EXPECT_EQ((*select_row)[3], Value(int64_t{4}));  // rows_scanned
  EXPECT_EQ((*select_row)[4], Value(int64_t{2}));  // rows_emitted
}

// UPDATE and DELETE by an indexed key probe the index: the log shows the
// access path and exactly one candidate row examined, never a scan.
TEST_F(SysmonTest, QueryLogShowsDmlAccessPath) {
  QueryLog::Global().Clear();
  Run("UPDATE items SET price = 25 WHERE id = 2");
  Run("DELETE FROM items WHERE id = 3");
  Run("DELETE FROM items WHERE price > 30");
  ResultSet rs = Run(
      "SELECT script, access_path, rows_scanned, rows_emitted "
      "FROM sysmon.query_log WHERE layer = 'sql'");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value("UPDATE items"));
  EXPECT_EQ(rs.rows[1][0], Value("DELETE FROM items"));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rs.rows[i][1], Value("index")) << i;
    EXPECT_EQ(rs.rows[i][2], Value(int64_t{1})) << i;  // rows_scanned
    EXPECT_EQ(rs.rows[i][3], Value(int64_t{1})) << i;  // rows affected
  }
  // No equality term on an indexed column: every live row is examined.
  EXPECT_EQ(rs.rows[2][1], Value("scan"));
  EXPECT_EQ(rs.rows[2][2], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[2][3], Value(int64_t{1}));
}

TEST_F(SysmonTest, QueryLogRecordsErrors) {
  EXPECT_FALSE(db_.Execute("SELECT * FROM no_such_table").ok());
  ResultSet rs = Run(
      "SELECT script, error_message FROM sysmon.query_log WHERE error");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_string(), "SELECT FROM no_such_table");
  EXPECT_NE(rs.rows[0][1].as_string().find("no_such_table"),
            std::string::npos);
}

TEST_F(SysmonTest, VirtualTablesComposeLikeRelations) {
  // Aggregation, DISTINCT and ORDER BY run over the snapshot unchanged.
  ResultSet count = Run(
      "SELECT COUNT(*) FROM sysmon.query_log WHERE layer = 'sql'");
  ASSERT_EQ(count.rows.size(), 1u);
  EXPECT_GE(count.rows[0][0].as_int(), 2);

  ResultSet joined = Run(
      "SELECT c.column_name, q.script FROM sysmon.column_stats c, "
      "sysmon.query_log q WHERE c.table_name = 'items' AND "
      "c.column_name = 'id' AND q.layer = 'sql' LIMIT 1");
  ASSERT_EQ(joined.rows.size(), 1u);
  EXPECT_EQ(joined.rows[0][0], Value("id"));
}

TEST_F(SysmonTest, QueryLogScansVectorized) {
  db_.SetExecConfig(db_.exec_config().vectorized(true));
  Run("SELECT * FROM items");
  Result<ResultSet> rs = db_.Execute(
      "SELECT script FROM sysmon.query_log WHERE layer = 'sql'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // The virtual-table scan itself runs through the columnar operators.
  EXPECT_STREQ(rs->exec.ExecMode(), "vectorized");
  EXPECT_GE(rs->rows.size(), 3u);
}

TEST_F(SysmonTest, MetricsTableExposesRegistry) {
  metrics::MetricsRegistry::Global()
      .GetCounter("sysmon_test.widgets")
      ->fetch_add(7);
  metrics::MetricsRegistry::Global()
      .GetHistogram("sysmon_test.latency")
      ->Observe(100);
  ResultSet rs = Run(
      "SELECT kind, value FROM sysmon.metrics "
      "WHERE name = 'sysmon_test.widgets'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("counter"));
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{7}));

  ResultSet hist = Run(
      "SELECT value, p99 FROM sysmon.metrics "
      "WHERE name = 'sysmon_test.latency' AND kind = 'histogram'");
  ASSERT_EQ(hist.rows.size(), 1u);
  EXPECT_EQ(hist.rows[0][0], Value(int64_t{1}));  // count
  EXPECT_GE(hist.rows[0][1].as_int(), 100);       // bucket upper bound
}

TEST_F(SysmonTest, ColumnStatsReflectLiveTables) {
  ResultSet rs = Run(
      "SELECT column_name, rows, nulls, min, max FROM sysmon.column_stats "
      "WHERE table_name = 'items' ORDER BY column_name");
  ASSERT_EQ(rs.rows.size(), 3u);  // id, name, price
  // price: 4 live rows, one NULL, min 10 max 40 (rendered as strings).
  const Row& price = rs.rows[2][0] == Value("price") ? rs.rows[2]
                                                     : rs.rows[0];
  ASSERT_EQ(price[0], Value("price"));
  EXPECT_EQ(price[1], Value(int64_t{4}));
  EXPECT_EQ(price[2], Value(int64_t{1}));
  EXPECT_EQ(price[3], Value("10"));
  EXPECT_EQ(price[4], Value("40"));

  // Stats track mutations: delete a row and re-scan.
  Run("DELETE FROM items WHERE id = 4");
  ResultSet after = Run(
      "SELECT rows, max FROM sysmon.column_stats "
      "WHERE table_name = 'items' AND column_name = 'price'");
  ASSERT_EQ(after.rows.size(), 1u);
  EXPECT_EQ(after.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(after.rows[0][1], Value("20"));
}

TEST_F(SysmonTest, SlowQueriesTableReadsGlobalRing) {
  QueryLog::Global().Clear();
  QueryLog::Entry entry;
  entry.layer = "gremlin";
  entry.script = "g.V().count()";
  entry.micros = 123456;
  entry.rows_scanned = 10;
  entry.rows_emitted = 1;
  entry.trace_json = "{}";
  QueryLog::Global().Record(std::move(entry));
  ResultSet rs = Run(
      "SELECT script, elapsed_micros FROM sysmon.slow_queries");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("g.V().count()"));
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{123456}));
  QueryLog::Global().Clear();
}

// Ids are assigned under the ring lock, so however sessions interleave,
// the oldest-first ring is in strictly increasing id order (a TSan
// target: the suite name matches the CI stress regex).
TEST(SysmonConcurrencyTest, QueryLogIdsIncreaseUnderConcurrentRecording) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  QueryLog log(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryLog::Entry e;
        e.script = "t" + std::to_string(t);
        log.Record(std::move(e));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<QueryLog::Entry> entries = log.Entries();
  ASSERT_EQ(entries.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < entries.size(); ++i) {
    ASSERT_LT(entries[i - 1].id, entries[i].id) << "at position " << i;
  }
}

// A streamed SELECT files its one entry when it closes, reporting the rows
// the caller pulled rather than what a full drain would have produced.
TEST_F(SysmonTest, StreamedSelectFilesOneEntryWithRowsPulled) {
  QueryLog::Global().Clear();
  Result<std::unique_ptr<RowStream>> stream =
      db_.ExecuteStreaming("SELECT id FROM items");
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  RowBlock block;
  block.capacity = 2;  // half of the table
  ASSERT_TRUE((*stream)->Next(&block));
  ASSERT_EQ(block.rows.size(), 2u);
  EXPECT_TRUE(QueryLog::Global().Entries().empty());  // filed on close
  (*stream)->Close();
  stream->reset();

  std::vector<QueryLog::Entry> entries = QueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].layer, "sql");
  EXPECT_EQ(entries[0].script, "SELECT FROM items");
  EXPECT_EQ(entries[0].rows_emitted, 2u);
  EXPECT_FALSE(entries[0].error);
}

TEST_F(SysmonTest, QueryLogDisableRemovesRecording) {
  QueryLog::Global().SetEnabled(false);
  Run("SELECT * FROM items");
  QueryLog::Global().SetEnabled(true);
  ResultSet rs = Run(
      "SELECT script FROM sysmon.query_log WHERE layer = 'sql'");
  for (const Row& row : rs.rows) {
    EXPECT_NE(row[0].as_string(), "SELECT FROM items");
  }
}

// ----------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE
// ----------------------------------------------------------------------

TEST_F(SysmonTest, ExplainRendersOperatorTreeWithoutExecuting) {
  ResultSet rs = Run("EXPLAIN SELECT name FROM items WHERE price > 15");
  ASSERT_EQ(rs.columns, std::vector<std::string>{"plan"});
  ASSERT_FALSE(rs.rows.empty());
  std::string all;
  for (const Row& row : rs.rows) all += row[0].as_string() + "\n";
  EXPECT_NE(all.find("Scan"), std::string::npos);
  EXPECT_EQ(all.find("actual"), std::string::npos);  // not executed
  EXPECT_EQ(rs.exec.rows_scanned, 0u);
}

TEST_F(SysmonTest, ExplainAnalyzeActualsMatchExecInfoScalar) {
  db_.SetExecConfig(db_.exec_config().vectorized(false));
  ResultSet rs = Run("EXPLAIN ANALYZE SELECT name FROM items");
  const std::vector<OpProfile>& ops = rs.exec.op_profiles;
  ASSERT_EQ(ops.size(), 2u);  // Scan -> Project (leaf-first)
  EXPECT_EQ(ops[0].name, "Scan");
  EXPECT_EQ(ops[1].name, "Project");
  EXPECT_EQ(ops[0].rows_out, rs.exec.rows_scanned);
  EXPECT_EQ(ops[1].rows_out, rs.exec.rows_emitted);
  EXPECT_EQ(ops[1].rows_in, ops[0].rows_out);
  EXPECT_GE(ops[0].blocks, 1u);
  // Inclusive timing: the root covers everything below it.
  EXPECT_GE(ops[1].micros, ops[0].micros);

  std::string all;
  for (const Row& row : rs.rows) all += row[0].as_string() + "\n";
  EXPECT_NE(all.find("actual"), std::string::npos);
  EXPECT_NE(all.find("rows=4"), std::string::npos);
}

TEST_F(SysmonTest, ExplainAnalyzeActualsMatchExecInfoVectorized) {
  db_.SetExecConfig(db_.exec_config().vectorized(true));
  ResultSet rs = Run("EXPLAIN ANALYZE SELECT name FROM items "
                     "WHERE price > 15");
  const std::vector<OpProfile>& ops = rs.exec.op_profiles;
  ASSERT_EQ(ops.size(), 2u);  // ColumnScan (filter fused) -> ColumnProject
  EXPECT_EQ(ops[0].name, "ColumnScan");
  EXPECT_EQ(ops[1].name, "ColumnProject");
  EXPECT_EQ(ops[0].detail, "items dop=1 1 conjunct(s)");
  EXPECT_STREQ(rs.exec.ExecMode(), "vectorized");
  EXPECT_EQ(ops[0].rows_out, rs.exec.rows_emitted);  // post-filter
  EXPECT_EQ(ops[1].rows_out, rs.exec.rows_emitted);
  EXPECT_EQ(ops[1].rows_in, ops[0].rows_out);
  EXPECT_EQ(rs.exec.rows_scanned, 4u);
  EXPECT_EQ(rs.exec.rows_emitted, 2u);
}

TEST_F(SysmonTest, ExplainAnalyzeEntersQueryLogWithPlan) {
  Run("EXPLAIN ANALYZE SELECT * FROM items");
  ResultSet rs = Run(
      "SELECT script, plan FROM sysmon.query_log WHERE layer = 'sql'");
  const Row* analyzed = nullptr;
  for (const Row& row : rs.rows) {
    if (row[0].as_string() == "EXPLAIN ANALYZE SELECT FROM items") {
      analyzed = &row;
    }
  }
  ASSERT_NE(analyzed, nullptr);
  EXPECT_NE((*analyzed)[1].as_string().find("actual"), std::string::npos);
}

TEST_F(SysmonTest, ProfileExecutionInstrumentsEverySelect) {
  db_.SetExecConfig(db_.exec_config().profile(true));
  Result<ResultSet> rs = db_.Execute("SELECT name FROM items");
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(rs->exec.op_profiles.empty());
  EXPECT_EQ(rs->exec.op_profiles.back().rows_out, rs->exec.rows_emitted);
  db_.SetExecConfig(db_.exec_config().profile(false));

  // The profiled run's plan landed in the query log.
  ResultSet log = Run(
      "SELECT script, plan FROM sysmon.query_log WHERE layer = 'sql'");
  bool found = false;
  for (const Row& row : log.rows) {
    if (row[0].as_string() == "SELECT FROM items" &&
        !row[1].as_string().empty()) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ----------------------------------------------------------------------
// Core-layer integration: Gremlin entries and sysmon.plan_cache
// ----------------------------------------------------------------------

constexpr char kGraphConfig[] = R"json({
  "v_tables": [
    {
      "table_name": "items",
      "id": "id",
      "fix_label": true,
      "label": "'item'",
      "properties": ["id", "name", "price"]
    }
  ],
  "e_tables": []
})json";

TEST_F(SysmonTest, GremlinExecutionsAndPlanCacheAreQueryable) {
  Result<std::unique_ptr<core::Db2Graph>> graph =
      core::Db2Graph::Open(&db_, kGraphConfig);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_TRUE((*graph)->Execute("g.V().count()").ok());
  ASSERT_TRUE((*graph)->Execute("g.V().count()").ok());  // plan-cache hit

  ResultSet gremlin = Run(
      "SELECT script, plan_source, rows_emitted FROM sysmon.query_log "
      "WHERE layer = 'gremlin' ORDER BY id");
  ASSERT_EQ(gremlin.rows.size(), 2u);
  EXPECT_EQ(gremlin.rows[0][0], Value("g.V().count()"));
  EXPECT_EQ(gremlin.rows[0][1], Value("compiled"));
  EXPECT_EQ(gremlin.rows[1][1], Value("cached"));
  EXPECT_EQ(gremlin.rows[0][2], Value(int64_t{1}));  // one traverser out

  ResultSet cache = Run(
      "SELECT hits, misses, entries FROM sysmon.plan_cache");
  ASSERT_EQ(cache.rows.size(), 1u);
  EXPECT_GE(cache.rows[0][0].as_int(), 1);  // second run hit
  EXPECT_GE(cache.rows[0][1].as_int(), 1);  // first run missed
  EXPECT_GE(cache.rows[0][2].as_int(), 1);

  // Graph teardown leaves the virtual table registered but empty.
  graph->reset();
  ResultSet gone = Run("SELECT * FROM sysmon.plan_cache");
  EXPECT_TRUE(gone.rows.empty());
}

// Provider SQL files one layer=sql entry per per-table statement, whether
// the provider drains the statement (point and adjacency lookups) or
// streams it (a vertex scan).
TEST(SysmonProviderTest, ProviderStatementsFileOneEntryEach) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE person (id BIGINT PRIMARY KEY, name VARCHAR(20));
    CREATE TABLE city (id BIGINT PRIMARY KEY, name VARCHAR(20));
    CREATE TABLE lives (src BIGINT, dst BIGINT);
    INSERT INTO person VALUES (1, 'ann'), (2, 'bob');
    INSERT INTO city VALUES (10, 'oslo'), (11, 'rome');
    INSERT INTO lives VALUES (1, 10), (2, 11);
  )sql")
                  .ok());
  constexpr char kTwoTables[] = R"json({
    "v_tables": [
      {"table_name": "person", "id": "id", "fix_label": true,
       "label": "'person'", "properties": ["name"]},
      {"table_name": "city", "id": "id", "fix_label": true,
       "label": "'city'", "properties": ["name"]}
    ],
    "e_tables": [
      {"table_name": "lives", "src_v_table": "person", "src_v": "src",
       "dst_v_table": "city", "dst_v": "dst", "implicit_edge_id": true,
       "fix_label": true, "label": "'livesIn'"}
    ]
  })json";
  QueryLog::Global().SetEnabled(true);
  auto sql_entries = [&](const std::string& q) -> size_t {
    // A fresh graph per query: no vertex-cache hit answers without SQL.
    Result<std::unique_ptr<core::Db2Graph>> graph =
        core::Db2Graph::Open(&db, kTwoTables);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) return 0;
    QueryLog::Global().Clear();
    Result<std::vector<gremlin::Traverser>> out = (*graph)->Execute(q);
    EXPECT_TRUE(out.ok()) << q << ": " << out.status().ToString();
    size_t n = 0;
    for (const QueryLog::Entry& e : QueryLog::Global().Entries()) {
      if (e.layer == "sql") ++n;
    }
    return n;
  };
  // Point lookup: one statement per vertex table the plain id can be in.
  EXPECT_EQ(sql_entries("g.V(1)"), 2u);
  // Adjacency: the edge table; out() adds the pinned endpoint table.
  EXPECT_EQ(sql_entries("g.V(1).outE('livesIn')"), 1u);
  EXPECT_EQ(sql_entries("g.V(1).out('livesIn')"), 2u);
  // A scan streams each vertex table.
  EXPECT_EQ(sql_entries("g.V()"), 2u);
  QueryLog::Global().Clear();
}

TEST_F(SysmonTest, QueryLogShowsEachCallersTextForASharedShapePlan) {
  Result<std::unique_ptr<core::Db2Graph>> graph =
      core::Db2Graph::Open(&db_, kGraphConfig);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_TRUE((*graph)->Execute("g.V(1).values('name')").ok());
  ASSERT_TRUE((*graph)->Execute("g.V(2).values('name')").ok());  // shared
  ASSERT_TRUE((*graph)->Execute("g.V('x').values('name')").ok());

  ResultSet gremlin = Run(
      "SELECT script, plan_source FROM sysmon.query_log "
      "WHERE layer = 'gremlin' ORDER BY id");
  ASSERT_EQ(gremlin.rows.size(), 3u);
  EXPECT_EQ(gremlin.rows[0][0], Value("g.V(1).values('name')"));
  EXPECT_EQ(gremlin.rows[0][1], Value("compiled"));
  EXPECT_EQ(gremlin.rows[1][0], Value("g.V(2).values('name')"));
  EXPECT_EQ(gremlin.rows[1][1], Value("cached"));
  EXPECT_EQ(gremlin.rows[2][0], Value("g.V('x').values('name')"));
  EXPECT_EQ(gremlin.rows[2][1], Value("cached"));

  ResultSet cache = Run("SELECT hits, misses, entries FROM sysmon.plan_cache");
  ASSERT_EQ(cache.rows.size(), 1u);
  EXPECT_EQ(cache.rows[0][0], Value(int64_t{2}));
  EXPECT_EQ(cache.rows[0][1], Value(int64_t{1}));
  EXPECT_EQ(cache.rows[0][2], Value(int64_t{1}));
}

}  // namespace
}  // namespace db2graph::sql
