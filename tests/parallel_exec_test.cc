// Copyright (c) 2026 The db2graph-repro Authors.
//
// Coverage for morsel-driven intra-query parallelism and the ExecConfig
// surface that fronts it:
//
//  * ExecConfig tri-state layering — overlay precedence, clamping, the
//    thread-local scope, and the database session and per-graph layers
//    of the resolution chain;
//  * SQL parallel-vs-serial equivalence — every eligible shape (full
//    scans, kernel and fallback filters, simple and grouped aggregates,
//    hash joins, ORDER BY) produces the serial row path's rows at dop
//    1/2/8 x block sizes 1/7/1024 x vectorized/scalar (double aggregates
//    match exactly at dop 1 and within an epsilon above it: per-worker
//    partial sums reassociate);
//  * Gremlin parallel-vs-serial equivalence — the streaming shape suite
//    at every (dop, block size, vectorized) combination matches a serial
//    one-block run (no block boundaries) exactly, ordering included;
//  * observability — EXPLAIN ANALYZE, ExecInfo, and sysmon.query_log
//    surface the per-query dop and morsel counts, and a serial plan
//    keeps reporting dop 1 / morsels 0 even when the config asks for
//    more;
//  * governance — morsel workers racing KillQuery under TSan, and
//    cooperative cancellation landing in under 100 ms mid-parallel-scan.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_config.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "common/workload_governor.h"
#include "core/db2graph.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"
#include "sql/database.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;
using sql::ResultSet;

// ------------------------------------------------------------------
// ExecConfig semantics.
// ------------------------------------------------------------------

TEST(ExecConfigTest, UnsetFieldsResolveToEngineDefaults) {
  ExecConfig cfg;
  EXPECT_EQ(cfg.parallelism(), 1);
  EXPECT_TRUE(cfg.vectorized());
  EXPECT_FALSE(cfg.profile());
  EXPECT_EQ(cfg.block_rows(), 0u);
  EXPECT_FALSE(cfg.has_parallelism());
  EXPECT_FALSE(cfg.has_vectorized());
  EXPECT_FALSE(cfg.has_block_rows());
}

TEST(ExecConfigTest, BuildersReturnModifiedCopies) {
  const ExecConfig base;
  ExecConfig tuned = base.parallelism(4).vectorized(false).block_rows(64);
  EXPECT_EQ(base.parallelism(), 1);   // base untouched
  EXPECT_TRUE(base.vectorized());
  EXPECT_EQ(tuned.parallelism(), 4);
  EXPECT_FALSE(tuned.vectorized());
  EXPECT_EQ(tuned.block_rows(), 64u);
  EXPECT_TRUE(tuned.has_block_rows());
  EXPECT_FALSE(base.has_block_rows());  // never set on base: inherits
  EXPECT_FALSE(tuned.has_profile());    // never set: still inherits
}

TEST(ExecConfigTest, ParallelismClampsToSupportedRange) {
  EXPECT_EQ(ExecConfig().parallelism(0).parallelism(), 1);
  EXPECT_EQ(ExecConfig().parallelism(-5).parallelism(), 1);
  EXPECT_EQ(ExecConfig().parallelism(1000).parallelism(), 64);
}

TEST(ExecConfigTest, OverlayLetsSetFieldsWinAndUnsetFallThrough) {
  ExecConfig lower = ExecConfig().parallelism(2).vectorized(false);
  ExecConfig upper = ExecConfig().parallelism(8);  // vectorized unset
  ExecConfig merged = lower.OverlaidBy(upper);
  EXPECT_EQ(merged.parallelism(), 8);     // upper wins
  EXPECT_FALSE(merged.vectorized());      // falls through to lower
  EXPECT_FALSE(merged.has_block_rows());  // unset at both layers
  // Overlaying an all-unset config changes nothing.
  ExecConfig same = lower.OverlaidBy(ExecConfig());
  EXPECT_EQ(same.parallelism(), 2);
  EXPECT_FALSE(same.vectorized());
}

TEST(ExecConfigTest, ScopedExecConfigInstallsAndRestoresThreadLocally) {
  EXPECT_EQ(ExecConfig::Current().parallelism(), 1);
  {
    ScopedExecConfig outer(ExecConfig().parallelism(4));
    EXPECT_EQ(ExecConfig::Current().parallelism(), 4);
    {
      ScopedExecConfig inner(ExecConfig().parallelism(2));
      EXPECT_EQ(ExecConfig::Current().parallelism(), 2);
    }
    EXPECT_EQ(ExecConfig::Current().parallelism(), 4);  // restored
  }
  EXPECT_EQ(ExecConfig::Current().parallelism(), 1);
  // Another thread never sees this thread's scope.
  ScopedExecConfig scoped(ExecConfig().parallelism(8));
  int other_thread_dop = 0;
  std::thread([&] {
    other_thread_dop = ExecConfig::Current().parallelism();
  }).join();
  EXPECT_EQ(other_thread_dop, 1);
}

TEST(ExecConfigTest, DatabaseSessionThenThreadScopeResolution) {
  sql::Database db;
  db.SetExecConfig(ExecConfig().parallelism(4).vectorized(false));
  ExecConfig resolved = db.ResolveExecConfig();
  EXPECT_EQ(resolved.parallelism(), 4);
  EXPECT_FALSE(resolved.vectorized());
  {
    // A per-query thread-local scope overrides the session layer.
    ScopedExecConfig scoped(ExecConfig().parallelism(2));
    ExecConfig overridden = db.ResolveExecConfig();
    EXPECT_EQ(overridden.parallelism(), 2);
    EXPECT_FALSE(overridden.vectorized());  // session still supplies this
  }
  EXPECT_EQ(db.ResolveExecConfig().parallelism(), 4);
  EXPECT_EQ(db.exec_config().parallelism(), 4);
}

TEST(ExecConfigTest, GraphConfigDoesNotLeakIntoOtherGraphs) {
  // Each graph's Options::exec is its own layer of the resolution chain:
  // opening a second graph on the same database must not change how the
  // first one executes (nor the database session).
  linkbench::Config config;
  config.num_vertices = 100000;
  config.edges_per_vertex = 0;
  linkbench::Dataset dataset = linkbench::Generate(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoDatabase(&db, dataset).ok());
  // Without LIMIT pushdown, and with id() between the source and the
  // limit (so the pull hint does not shrink the first pull), the graph's
  // block size bounds the scan: rows_scanned shows which block size a
  // graph ran.
  Db2Graph::Options blocked_options;
  blocked_options.strategies.limit_pushdown = false;
  Result<std::unique_ptr<Db2Graph>> blocked =
      Db2Graph::Open(&db, linkbench::MakeOverlay(), blocked_options);
  ASSERT_TRUE(blocked.ok());
  auto rows_scanned = [&](Db2Graph* graph) -> uint64_t {
    const uint64_t before = db.stats().Snapshot().rows_scanned;
    Result<std::vector<Traverser>> out =
        graph->Execute("g.V().id().limit(10)");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (out.ok()) {
      EXPECT_EQ(out->size(), 10u);
    }
    return db.stats().Snapshot().rows_scanned - before;
  };
  const uint64_t blocked_rows = rows_scanned(blocked->get());
  EXPECT_LT(blocked_rows, 1000u);

  Db2Graph::Options one_block_options = blocked_options;
  one_block_options.exec =
      ExecConfig().block_rows(std::numeric_limits<size_t>::max());
  Result<std::unique_ptr<Db2Graph>> one_block =
      Db2Graph::Open(&db, linkbench::MakeOverlay(), one_block_options);
  ASSERT_TRUE(one_block.ok());
  EXPECT_GE(rows_scanned(one_block->get()), 100000u);
  EXPECT_EQ(rows_scanned(blocked->get()), blocked_rows);
  EXPECT_FALSE(db.exec_config().has_block_rows());
}

TEST(ExecConfigTest, ReachesFanOutWorkers) {
  // The provider runs per-table SQL on pool threads, both in the
  // materialized fan-out and in the streaming producers. Each statement
  // must compile under the caller's execution config (which carries the
  // graph layer and the per-call overlay), not just the database session.
  // Tables are large enough that pool workers, not only the calling
  // thread, pick up fan-out tasks.
  linkbench::Config config;
  config.num_vertices = 20000;
  config.edges_per_vertex = 0;
  linkbench::Dataset dataset = linkbench::GeneratePartitioned(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok());
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
      &db, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  for (bool streaming : {false, true}) {
    for (bool vectorized : {true, false}) {
      QueryTrace trace;
      ScopedTrace traced(&trace);
      ScopedExecConfig configured(ExecConfig().vectorized(vectorized));
      // One span open for the whole lookup, so every statement is filed.
      const int span = trace.BeginStep("V", "", 0);
      gremlin::LookupSpec spec;  // every vertex: a full scan per table
      std::vector<gremlin::VertexPtr> vertices;
      if (streaming) {
        Result<std::unique_ptr<gremlin::VertexStream>> stream =
            (*graph)->provider()->VerticesStreaming(spec);
        ASSERT_TRUE(stream.ok()) << stream.status().ToString();
        std::vector<gremlin::VertexPtr> block;
        while ((*stream)->Next(&block, 64)) {
          vertices.insert(vertices.end(), block.begin(), block.end());
        }
        ASSERT_TRUE((*stream)->status().ok());
        (*stream)->Close();
      } else {
        ASSERT_TRUE((*graph)->provider()->Vertices(spec, &vertices).ok());
      }
      trace.EndStep(span, vertices.size());
      EXPECT_EQ(vertices.size(), dataset.nodes.size());
      const std::vector<StepTraceSpan> spans = trace.Spans();
      ASSERT_EQ(spans.size(), 1u);
      EXPECT_GT(spans[0].fanout_tasks, 1u) << "streaming=" << streaming;
      EXPECT_EQ(spans[0].statements.size(), spans[0].fanout_tasks);
      for (const SqlTraceRecord& record : spans[0].statements) {
        EXPECT_EQ(record.exec_mode, vectorized ? "vectorized" : "scalar")
            << record.sql << " streaming=" << streaming;
      }
    }
  }
}

// ------------------------------------------------------------------
// SQL parallel-vs-serial equivalence matrix.
// ------------------------------------------------------------------

class ParallelSqlEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE Facts (a BIGINT, b DOUBLE, "
                            "s VARCHAR(8), g BIGINT)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE Dims (id BIGINT PRIMARY KEY, "
                    "name VARCHAR(16))")
            .ok());
    sql::Table* facts = db_.GetTable("Facts");
    ASSERT_NE(facts, nullptr);
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 3000; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      Row row;
      row.push_back(Value(static_cast<int64_t>(rng % 3000)));
      row.push_back((rng >> 8) % 16 == 0
                        ? Value()
                        : Value(static_cast<double>((rng >> 16) % 997) / 4));
      row.push_back(Value("s" + std::to_string((rng >> 32) % 13)));
      row.push_back(Value(static_cast<int64_t>((rng >> 48) % 500)));
      ASSERT_TRUE(facts->Insert(std::move(row)).ok());
    }
    sql::Table* dims = db_.GetTable("Dims");
    ASSERT_NE(dims, nullptr);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          dims->Insert({Value(int64_t{i}), Value("d" + std::to_string(i % 7))})
              .ok());
    }
  }

  ResultSet Run(const std::string& q) {
    Result<ResultSet> rs = db_.Execute(q);
    EXPECT_TRUE(rs.ok()) << q << ": " << rs.status().ToString();
    return rs.ok() ? std::move(*rs) : ResultSet{};
  }

  sql::Database db_;
};

TEST_F(ParallelSqlEquivalenceTest, AllShapesMatchSerialAcrossTheMatrix) {
  // Every operator family parallelism touches: full-scan filters (typed
  // kernel and scalar fallback), simple and grouped aggregates, the
  // sharded hash join, the parallel sort (>= 1024 rows so it engages),
  // DISTINCT, and a multi-way mix. No double SUM/AVG here — those
  // reassociate and are compared separately with an epsilon.
  const char* const kQueries[] = {
      "SELECT COUNT(*), SUM(a), MIN(a), MAX(a) FROM Facts",
      "SELECT COUNT(b), MIN(b), MAX(b) FROM Facts",
      "SELECT a, s FROM Facts WHERE a > 1500",
      "SELECT a FROM Facts WHERE a + 1 > 1500",  // scalar-fallback kernel
      "SELECT s FROM Facts WHERE a > 300 AND g < 250",
      "SELECT g, COUNT(*), SUM(a), MIN(a) FROM Facts GROUP BY g",
      "SELECT s, COUNT(*) FROM Facts GROUP BY s",
      "SELECT g, COUNT(*) FROM Facts WHERE a < 2000 GROUP BY g",
      "SELECT DISTINCT s FROM Facts",
      "SELECT a, s FROM Facts WHERE a < 2500 ORDER BY a, s",
      "SELECT s, COUNT(*) AS n FROM Facts GROUP BY s ORDER BY n DESC, s",
      "SELECT f.a, d.name FROM Facts f JOIN Dims d ON f.g = d.id "
      "WHERE f.a < 700",
      "SELECT d.name, COUNT(*) FROM Facts f JOIN Dims d ON f.g = d.id "
      "GROUP BY d.name",
      "SELECT COUNT(*) FROM Facts f, Dims d WHERE f.g = d.id AND f.a > 100",
      "SELECT a FROM Facts ORDER BY a LIMIT 20",
  };

  // Independent baseline: the row-at-a-time operators, serially.
  db_.SetExecConfig(ExecConfig().vectorized(false).parallelism(1));
  std::vector<ResultSet> expected;
  for (const char* q : kQueries) expected.push_back(Run(q));

  const int kDops[] = {1, 2, 8};
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (int dop : kDops) {
    for (size_t block : kBlockSizes) {
      for (bool vectorized : {true, false}) {
        db_.SetExecConfig(ExecConfig()
                              .parallelism(dop)
                              .block_rows(block)
                              .vectorized(vectorized));
        for (size_t i = 0; i < std::size(kQueries); ++i) {
          ResultSet rs = Run(kQueries[i]);
          EXPECT_EQ(expected[i].columns, rs.columns) << kQueries[i];
          EXPECT_EQ(expected[i].rows, rs.rows)
              << kQueries[i] << " at dop=" << dop << " block=" << block
              << " vectorized=" << vectorized;
        }
      }
    }
  }
  db_.SetExecConfig(ExecConfig());
}

TEST_F(ParallelSqlEquivalenceTest, DoubleAggregatesMatchWithinEpsilon) {
  // SUM/AVG over DOUBLE reassociate across per-worker partial states;
  // the result is deterministic for a fixed dop but may differ from the
  // row path's sum in the last bits. At dop 1 the one partial accumulates
  // in slot order exactly like the row path, so it matches bit for bit.
  const char* const kQueries[] = {
      "SELECT SUM(b) FROM Facts",
      "SELECT AVG(b) FROM Facts WHERE a < 2000",
  };
  db_.SetExecConfig(ExecConfig().vectorized(false).parallelism(1));
  std::vector<double> expected;
  for (const char* q : kQueries) {
    ResultSet rs = Run(q);
    ASSERT_EQ(rs.rows.size(), 1u);
    expected.push_back(rs.rows[0][0].as_double());
  }
  for (int dop : {1, 2, 8}) {
    db_.SetExecConfig(ExecConfig().parallelism(dop));
    for (size_t i = 0; i < std::size(kQueries); ++i) {
      ResultSet rs = Run(kQueries[i]);
      ASSERT_EQ(rs.rows.size(), 1u);
      EXPECT_STREQ(rs.exec.ExecMode(), "vectorized") << kQueries[i];
      double got = rs.rows[0][0].as_double();
      if (dop == 1) {
        EXPECT_EQ(got, expected[i]) << kQueries[i] << " at dop=1";
      } else {
        EXPECT_NEAR(got, expected[i], std::abs(expected[i]) * 1e-9)
            << kQueries[i] << " at dop=" << dop;
      }
    }
  }
  db_.SetExecConfig(ExecConfig());
}

TEST_F(ParallelSqlEquivalenceTest, SerialColumnScanStopsWithinOneBlock) {
  // At dop 1 a scan round visits at most the consumer's block capacity in
  // slots, and Next() hands back the first round that matched, so a
  // selective filter under a small pull touches a block, not the table.
  db_.SetExecConfig(ExecConfig());
  constexpr size_t kBlock = 64;
  Result<std::unique_ptr<sql::RowStream>> stream =
      db_.ExecuteStreaming("SELECT a FROM Facts WHERE g < 50", kBlock);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  sql::RowBlock block;
  block.capacity = kBlock;
  ASSERT_TRUE((*stream)->Next(&block));
  EXPECT_LT(block.rows.size(), kBlock);  // about 1 row in 10 matches
  const sql::ExecInfo& exec = (*stream)->exec();
  EXPECT_EQ(exec.rows_scanned % kBlock, 0u);
  EXPECT_LE(exec.rows_scanned, 2 * kBlock);
  EXPECT_EQ(exec.dop, 1u);
  EXPECT_EQ(exec.morsels, 0u);
}

TEST_F(ParallelSqlEquivalenceTest, EmptyTableAggregatesMatchRowPath) {
  // No slots means no morsels; the column aggregate still runs one task,
  // so the simple shape yields its one row at every dop.
  ASSERT_TRUE(db_.Execute("CREATE TABLE Empty (a BIGINT, g BIGINT)").ok());
  const char* const kQueries[] = {
      "SELECT COUNT(*), SUM(a), MIN(a) FROM Empty",
      "SELECT g, COUNT(*) FROM Empty GROUP BY g",
  };
  db_.SetExecConfig(ExecConfig().vectorized(false).parallelism(1));
  std::vector<ResultSet> expected;
  for (const char* q : kQueries) expected.push_back(Run(q));
  ASSERT_EQ(expected[0].rows.size(), 1u);
  for (int dop : {1, 4}) {
    db_.SetExecConfig(ExecConfig().parallelism(dop));
    for (size_t i = 0; i < std::size(kQueries); ++i) {
      ResultSet rs = Run(kQueries[i]);
      EXPECT_STREQ(rs.exec.ExecMode(), "vectorized") << kQueries[i];
      EXPECT_EQ(expected[i].rows, rs.rows)
          << kQueries[i] << " at dop=" << dop;
    }
  }
  db_.SetExecConfig(ExecConfig());
}

// ------------------------------------------------------------------
// Observability: dop and morsel counts must surface everywhere.
// ------------------------------------------------------------------

TEST_F(ParallelSqlEquivalenceTest, ExplainAnalyzeSurfacesDopAndMorsels) {
  db_.SetExecConfig(ExecConfig().parallelism(4));
  ResultSet rs = Run("EXPLAIN ANALYZE SELECT g, COUNT(*) FROM Facts "
                     "WHERE a > 100 GROUP BY g");
  EXPECT_EQ(rs.exec.dop, 4u);
  EXPECT_GT(rs.exec.morsels, 0u);
  std::string plan;
  for (const Row& row : rs.rows) plan += row[0].as_string() + "\n";
  EXPECT_NE(plan.find("ColumnAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("dop=4"), std::string::npos) << plan;
  EXPECT_NE(plan.find("morsels="), std::string::npos) << plan;

  rs = Run("EXPLAIN ANALYZE SELECT a, s FROM Facts WHERE a > 1500");
  EXPECT_EQ(rs.exec.dop, 4u);
  EXPECT_GT(rs.exec.morsels, 0u);
  plan.clear();
  for (const Row& row : rs.rows) plan += row[0].as_string() + "\n";
  EXPECT_NE(plan.find("ColumnScan"), std::string::npos) << plan;
  db_.SetExecConfig(ExecConfig());
}

TEST_F(ParallelSqlEquivalenceTest, SerialPlansReportDopOneAndZeroMorsels) {
  // A plan with no parallel-eligible operator reports what it actually
  // did — dop 1, zero morsels — even though the config asked for more.
  db_.SetExecConfig(ExecConfig().parallelism(8).vectorized(false));
  ResultSet rs = Run("SELECT a FROM Facts WHERE a > 2990");
  EXPECT_EQ(rs.exec.dop, 1u);
  EXPECT_EQ(rs.exec.morsels, 0u);
  db_.SetExecConfig(ExecConfig());
  rs = Run("SELECT COUNT(*) FROM Facts");
  EXPECT_EQ(rs.exec.dop, 1u);
  EXPECT_EQ(rs.exec.morsels, 0u);
}

TEST_F(ParallelSqlEquivalenceTest, QueryLogRecordsDopAndMorsels) {
  QueryLog& query_log = QueryLog::Global();
  const bool was_enabled = query_log.enabled();
  query_log.SetEnabled(true);
  db_.SetExecConfig(ExecConfig().parallelism(4));
  Run("SELECT g, COUNT(*) FROM Facts GROUP BY g");
  db_.SetExecConfig(ExecConfig());
  ResultSet rs = Run("SELECT script, dop, morsels FROM sysmon.query_log "
                     "WHERE layer = 'sql'");
  query_log.SetEnabled(was_enabled);
  // The log stores a synthesized statement description, so match on the
  // table plus the recorded dop (only this test's queries are logged —
  // the log was disabled during the rest of the suite).
  bool found = false;
  for (const Row& row : rs.rows) {
    if (row[0].as_string().find("Facts") != std::string::npos &&
        row[1] == Value(int64_t{4})) {
      EXPECT_GT(row[2].as_int(), 0) << row[0].as_string();
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "parallel query not found in sysmon.query_log";
}

// ------------------------------------------------------------------
// Gremlin parallel-vs-serial equivalence matrix.
// ------------------------------------------------------------------

class ParallelGremlinEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 300;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
  }

  std::unique_ptr<Db2Graph> Open(const ExecConfig& exec) {
    Db2Graph::Options options;
    options.exec = exec;
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false),
        options);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) return nullptr;
    return std::move(*graph);
  }

  static std::vector<std::string> RunOrdered(Db2Graph* graph,
                                             const std::string& q) {
    Result<std::vector<Traverser>> out = graph->Execute(q);
    if (!out.ok()) return {"ERROR: " + out.status().ToString()};
    std::vector<std::string> rendered;
    rendered.reserve(out->size());
    for (const Traverser& t : *out) rendered.push_back(t.ToString());
    return rendered;
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
};

TEST_F(ParallelGremlinEquivalenceTest, StreamingShapesMatchAcrossTheMatrix) {
  // The streaming shape families (same suite the streaming equivalence
  // test runs): linear chains, limit/range short-circuits, stateful
  // steps, barriers — order() and groupCount() are the ones the parallel
  // drain splits — adjacency, and sub-traversal steps.
  const char* const kQueries[] = {
      "g.V()",
      "g.V().limit(1)",
      "g.V().limit(7)",
      "g.V().limit(1000)",
      "g.V().range(3, 11)",
      "g.V().range(0, 5)",
      "g.V().hasLabel('vt1')",
      "g.V().hasLabel('vt1').limit(5)",
      "g.V().has('version', 3).limit(4)",
      "g.V().id().limit(6)",
      "g.V().label().dedup()",
      "g.V().values('time').limit(9)",
      "g.V().valueMap('version').limit(3)",
      "g.V().dedup().limit(8)",
      "g.V().out().limit(6)",
      "g.V().out('et1')",
      "g.V().outE('et2').limit(3)",
      "g.V().in().limit(5)",
      "g.V().out().in().limit(4)",
      "g.V().both('et2').limit(5)",
      "g.V().both().count()",
      "g.E()",
      "g.E().limit(6)",
      "g.V().order().limit(5)",
      "g.V().values('time').order().tail(3)",
      "g.V().groupCount()",
      "g.V().order()",
      "g.V().values('time').groupCount()",
      "g.V().count()",
      "g.V().out().count()",
      "g.V().store('s').limit(3).cap('s')",
      "g.V().limit(10).store('s').cap('s')",
      "g.V().where(outE('et1').count().is(gte(1))).limit(4)",
      "g.V().not(out('et1')).limit(5)",
      "g.V(5).repeat(out().dedup()).times(2)",
      "g.V().out().path().limit(4)",
      "g.V().out().simplePath().limit(5)",
  };

  // Serial one-block baseline: no block boundaries, so the cross-block
  // counters of limit, range, dedup and store are exact by construction.
  std::unique_ptr<Db2Graph> baseline =
      Open(ExecConfig().block_rows(std::numeric_limits<size_t>::max()));
  ASSERT_NE(baseline, nullptr);
  std::vector<std::vector<std::string>> expected;
  for (const char* q : kQueries) {
    expected.push_back(RunOrdered(baseline.get(), q));
  }

  const int kDops[] = {1, 2, 8};
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (int dop : kDops) {
    for (size_t block : kBlockSizes) {
      for (bool vectorized : {true, false}) {
        std::unique_ptr<Db2Graph> graph = Open(ExecConfig()
                                                   .parallelism(dop)
                                                   .block_rows(block)
                                                   .vectorized(vectorized));
        ASSERT_NE(graph, nullptr);
        for (size_t i = 0; i < std::size(kQueries); ++i) {
          EXPECT_EQ(expected[i], RunOrdered(graph.get(), kQueries[i]))
              << kQueries[i] << " at dop=" << dop << " block=" << block
              << " vectorized=" << vectorized;
        }
      }
    }
  }
}

TEST_F(ParallelGremlinEquivalenceTest, PerCallConfigOverridesSessionDop) {
  std::unique_ptr<Db2Graph> graph = Open(ExecConfig().parallelism(8));
  ASSERT_NE(graph, nullptr);
  // The per-call overlay can take one execution back to serial; results
  // must be identical either way.
  ExecOptions serial_call;
  serial_call.config = ExecConfig().parallelism(1);
  auto parallel_out = graph->Execute("g.V().groupCount()");
  auto serial_out = graph->Execute("g.V().groupCount()", serial_call);
  ASSERT_TRUE(parallel_out.ok()) << parallel_out.status().ToString();
  ASSERT_TRUE(serial_out.ok()) << serial_out.status().ToString();
  ASSERT_EQ(parallel_out->size(), serial_out->size());
  for (size_t i = 0; i < parallel_out->size(); ++i) {
    EXPECT_EQ((*parallel_out)[i].ToString(), (*serial_out)[i].ToString());
  }
}

// ------------------------------------------------------------------
// Governance: morsel workers vs KillQuery / cancellation latency.
// ------------------------------------------------------------------

class ParallelGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 20000;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

// TSan target: dop-8 morsel workers continuously starting and finishing
// while another thread kills whatever query is active. Every execution
// must end in either success or a clean kCancelled — never a crash,
// leak, or deadlock — and the kill thread must observe at least some
// victims mid-flight.
TEST_F(ParallelGovernanceTest, MorselWorkersRaceKillQueryStress) {
  constexpr int kIterations = 40;
  std::atomic<bool> done{false};
  std::atomic<int> cancelled{0};
  std::thread killer([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const auto& q :
           governor::ActiveQueryRegistry::Global().Snapshot()) {
        if (Db2Graph::KillQuery(q->id(), "parallel stress kill")) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::this_thread::yield();
    }
  });
  ExecOptions options;
  // Governed: registered for KillQuery.
  options.config = ExecConfig().parallelism(8).timeout_ms(600000);
  for (int i = 0; i < kIterations; ++i) {
    const std::string q = i % 2 == 0 ? "g.V().groupCount()"
                                     : "g.V().out().count()";
    Result<std::vector<Traverser>> out = graph_->Execute(q, options);
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
          << out.status().ToString();
    }
  }
  done.store(true, std::memory_order_release);
  killer.join();
  // With 40 governed executions and a tight kill loop, at least one must
  // have been caught mid-flight (usually most are).
  EXPECT_GT(cancelled.load(), 0);
}

TEST_F(ParallelGovernanceTest, CancellationLandsUnder100MsMidParallelScan) {
  // A long traversal (two-hop expansion over 20k vertices) under dop 8:
  // morsel workers check the governor at every morsel boundary, so a
  // kill must land within the latency budget, not after the scan drains.
  std::atomic<bool> started{false};
  std::atomic<int64_t> finished_at_micros{0};
  Status final_status = Status::OK();
  std::thread runner([&] {
    ExecOptions options;
    options.config = ExecConfig().parallelism(8).timeout_ms(600000);
    started.store(true, std::memory_order_release);
    Result<std::vector<Traverser>> out =
        graph_->Execute("g.V().out().out().count()", options);
    final_status = out.status();
    finished_at_micros.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_release);
  });

  // Wait until the query is registered and has made progress (so the
  // kill genuinely lands mid-scan), then kill and time the unwind.
  uint64_t victim = 0;
  for (int spin = 0; spin < 20000 && victim == 0; ++spin) {
    for (const auto& q : governor::ActiveQueryRegistry::Global().Snapshot()) {
      if (q->elapsed_micros() > 1000) victim = q->id();
    }
    if (victim == 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_NE(victim, 0u) << "parallel query never appeared in the registry";
  const int64_t kill_at =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  EXPECT_TRUE(Db2Graph::KillQuery(victim, "latency probe"));
  runner.join();

  ASSERT_FALSE(final_status.ok()) << "query finished before the kill; "
                                     "enlarge the dataset";
  EXPECT_EQ(final_status.code(), StatusCode::kCancelled)
      << final_status.ToString();
  const int64_t latency_micros =
      finished_at_micros.load(std::memory_order_acquire) - kill_at;
  EXPECT_LT(latency_micros, 100000)
      << "cancellation took " << latency_micros / 1000 << " ms";
}

}  // namespace
}  // namespace db2graph::core
