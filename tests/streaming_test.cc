// Copyright (c) 2026 The db2graph-repro Authors.
//
// Coverage for the block-at-a-time streaming pipeline:
//
//  * block-boundary correctness — every traversal shape produces the exact
//    same ordered results at block sizes 1, 7 and 1024 as a one-block run
//    of the same graph (a block size above the input, so no block
//    boundary exists and the cross-block counters of limit, range, dedup
//    and store are exact by construction);
//  * limit()/range() early termination, counter-asserted against the SQL
//    layer's rows_scanned (the acceptance bound: a limit(10) over a
//    100k-vertex table scans at most 10 + one block of rows per consulted
//    table, while the same traversal without limit() scans everything);
//  * barrier-step drain equivalence (order/tail/groupCount/cap/aggregates
//    over a streamed upstream);
//  * edge-sourced plans (g.E(), g.V(ids).outE(l), g.V().out(l), limited
//    or not) against the same one-block run, with the parallel fan-out on
//    and off, since the provider streams edge tables natively;
//  * early-termination cancellation racing the parallel multi-table
//    fan-out of vertex and edge streams (a TSan target: Close()
//    mid-stream must cleanly cancel producers that have not started and
//    join the ones that have).

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/db2graph.h"
#include "gremlin/graph_api.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

// A block size above any input: each segment runs as one block. SIZE_MAX
// also makes any buffer reserved by block capacity fail loudly.
constexpr size_t kOneBlock = std::numeric_limits<size_t>::max();

// Renders a traversal's result as an ordered list of strings; errors
// render too, so modes must agree on failures as well as results.
std::vector<std::string> RunOrdered(Db2Graph* graph, const std::string& q) {
  Result<std::vector<Traverser>> out = graph->Execute(q);
  if (!out.ok()) return {"ERROR: " + out.status().ToString()};
  std::vector<std::string> rendered;
  rendered.reserve(out->size());
  for (const Traverser& t : *out) rendered.push_back(t.ToString());
  return rendered;
}

// ------------------------------------------------------------------
// Block-boundary correctness + barrier drain equivalence.
// ------------------------------------------------------------------

// Partitioned LinkBench (10 vertex tables, 10 edge tables) with plain
// integer ids, so multi-table fan-out and table-order merging are always
// in play.
class StreamingEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 300;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
  }

  std::unique_ptr<Db2Graph> Open(size_t block_rows, bool vectorized = true,
                                 bool fanout = true) {
    Db2Graph::Options options;
    options.exec =
        ExecConfig().block_rows(block_rows).vectorized(vectorized);
    options.runtime.parallel_fanout = fanout;
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false),
        options);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (!graph.ok()) return nullptr;
    return std::move(*graph);
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
};

TEST_F(StreamingEquivalenceTest, AllBlockSizesMatchOneBlock) {
  // Every family the pipeline carves differently: pure streaming chains,
  // limit/range short-circuits, stateful steps (dedup/store), barriers
  // (order/tail/groupCount/cap/count), adjacency in all directions, and
  // sub-traversal steps (where/not/repeat).
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

  std::unique_ptr<Db2Graph> one_block = Open(kOneBlock);
  ASSERT_NE(one_block, nullptr);
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (const char* q : kQueries) {
    std::vector<std::string> expected = RunOrdered(one_block.get(), q);
    for (size_t block : kBlockSizes) {
      std::unique_ptr<Db2Graph> blocked = Open(block);
      ASSERT_NE(blocked, nullptr);
      EXPECT_EQ(expected, RunOrdered(blocked.get(), q))
          << q << " at block size " << block;
    }
  }
}

// Edge-sourced plans stream from the provider's edge stream: serially in
// table order without the fan-out, through per-table producers with it.
// Both must deliver exactly what a one-block run does, limited or not.
TEST_F(StreamingEquivalenceTest, EdgeSourcedPlansMatchOneBlock) {
  const char* const kQueries[] = {
      "g.E()",
      "g.E().limit(5)",
      "g.E().range(40, 47)",
      "g.V(1, 2, 3, 50, 120, 299).outE('et1')",
      "g.V(1, 2, 3, 50, 120, 299).outE('et1').limit(2)",
      "g.V(1, 2, 3, 50, 120, 299).outE('et1').range(1, 3)",
      "g.V().out('et2')",
      "g.V().out('et2').limit(5)",
      "g.V().out('et2').range(10, 14)",
  };
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (bool fanout : {true, false}) {
    std::unique_ptr<Db2Graph> one_block = Open(kOneBlock, true, fanout);
    ASSERT_NE(one_block, nullptr);
    for (const char* q : kQueries) {
      std::vector<std::string> expected = RunOrdered(one_block.get(), q);
      ASSERT_FALSE(expected.empty()) << q;
      for (size_t block : kBlockSizes) {
        std::unique_ptr<Db2Graph> blocked = Open(block, true, fanout);
        ASSERT_NE(blocked, nullptr);
        EXPECT_EQ(expected, RunOrdered(blocked.get(), q))
            << q << " at block size " << block
            << (fanout ? " (fan-out)" : " (serial)");
      }
    }
  }
}

// The vectorized SQL path must be invisible above the RowStream seam:
// every block size produces identical ordered results whether the scans
// underneath run columnar kernels or the scalar operator tree.
TEST_F(StreamingEquivalenceTest, BlockSizesMatchUnderVectorizedAndScalar) {
  const char* const kQueries[] = {
      "g.V()",
      "g.V().limit(7)",
      "g.V().range(3, 11)",
      "g.V().hasLabel('vt1')",
      "g.V().has('version', 3).limit(4)",
      "g.V().values('time').limit(9)",
      "g.V().out('et1')",
      "g.V().out().in().limit(4)",
      "g.V().both().count()",
      "g.E().limit(6)",
      "g.V().values('time').order().tail(3)",
      "g.V().groupCount()",
      "g.V().where(outE('et1').count().is(gte(1))).limit(4)",
  };
  const size_t kBlockSizes[] = {1, 7, 1024};
  for (bool vectorized : {false, true}) {
    // Each graph keeps its own config; grouping per mode keeps the
    // baseline in the same SQL mode as its blocked counterparts.
    std::unique_ptr<Db2Graph> one_block = Open(kOneBlock, vectorized);
    ASSERT_NE(one_block, nullptr);
    for (const char* q : kQueries) {
      std::vector<std::string> expected = RunOrdered(one_block.get(), q);
      for (size_t block : kBlockSizes) {
        std::unique_ptr<Db2Graph> blocked = Open(block, vectorized);
        ASSERT_NE(blocked, nullptr);
        EXPECT_EQ(expected, RunOrdered(blocked.get(), q))
            << q << " at block size " << block
            << (vectorized ? " (vectorized)" : " (scalar)");
      }
    }
  }
}

// ------------------------------------------------------------------
// Early termination, counter-asserted.
// ------------------------------------------------------------------

TEST(StreamingScanBudgetTest, LimitShortCircuitsSingleTableScan) {
  linkbench::Config config;
  config.num_vertices = 100000;
  config.edges_per_vertex = 0;  // vertex-scan test; links are irrelevant
  linkbench::Dataset dataset = linkbench::Generate(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoDatabase(&db, dataset).ok());

  Result<std::unique_ptr<Db2Graph>> streaming =
      Db2Graph::Open(&db, linkbench::MakeOverlay());
  ASSERT_TRUE(streaming.ok());

  // The baseline is the same traversal without limit(): a full drain.
  const std::string q = "g.V().hasLabel('vt3').limit(10)";
  const std::string drain_q = "g.V().hasLabel('vt3')";
  const uint64_t kBlock = 256;  // default streaming block size

  sql::ExecStats::Counts before = db.stats().Snapshot();
  Result<std::vector<Traverser>> s_out = (*streaming)->Execute(q);
  sql::ExecStats::Counts mid = db.stats().Snapshot();
  Result<std::vector<Traverser>> d_out = (*streaming)->Execute(drain_q);
  sql::ExecStats::Counts after = db.stats().Snapshot();
  ASSERT_TRUE(s_out.ok()) << s_out.status().ToString();
  ASSERT_TRUE(d_out.ok()) << d_out.status().ToString();
  ASSERT_EQ(s_out->size(), 10u);
  ASSERT_GE(d_out->size(), 10u);

  // The limited result is the drain's first ten...
  for (size_t i = 0; i < s_out->size(); ++i) {
    EXPECT_EQ((*s_out)[i].ToString(), (*d_out)[i].ToString()) << i;
  }

  // ...but the limited run stops scanning. The label predicate is
  // pushed into the WHERE clause, so the LIMIT-bounded scan visits rows
  // until 10 match — an order of magnitude under the acceptance bound,
  // four under the full drain.
  uint64_t streamed = mid.rows_scanned - before.rows_scanned;
  uint64_t drained = after.rows_scanned - mid.rows_scanned;
  EXPECT_LE(streamed, 10 * 10 + kBlock);  // ~1-in-10 label selectivity
  EXPECT_GE(drained, 100000u);
  EXPECT_LT(streamed, drained);

  // Unfiltered limit: the pull hint asks the SQL cursor for exactly the
  // rows the limit still accepts.
  before = db.stats().Snapshot();
  Result<std::vector<Traverser>> plain = (*streaming)->Execute("g.V().limit(10)");
  mid = db.stats().Snapshot();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), 10u);
  EXPECT_LE(mid.rows_scanned - before.rows_scanned, 10 + kBlock);

  // range(lo, hi) terminates at hi, not at the end of the table.
  before = db.stats().Snapshot();
  Result<std::vector<Traverser>> ranged =
      (*streaming)->Execute("g.V().range(100, 110)");
  mid = db.stats().Snapshot();
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(ranged->size(), 10u);
  EXPECT_LE(mid.rows_scanned - before.rows_scanned, 110 + kBlock);
}

TEST(StreamingScanBudgetTest, LimitBudgetAppliesPerConsultedTable) {
  // Ten vertex tables, no label: the limit's per-table budget is rendered
  // as a SQL LIMIT in each table's statement, so even the tables the
  // consumer never reaches (the parallel producers may have started them)
  // scan at most the budget.
  linkbench::Config config;
  config.num_vertices = 20000;
  config.edges_per_vertex = 0;
  linkbench::Dataset dataset = linkbench::GeneratePartitioned(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok());
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
      &db, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
  ASSERT_TRUE(graph.ok());

  sql::ExecStats::Counts before = db.stats().Snapshot();
  Result<std::vector<Traverser>> out = (*graph)->Execute("g.V().limit(10)");
  sql::ExecStats::Counts after = db.stats().Snapshot();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 10u);
  const uint64_t kTables = 10;
  const uint64_t kBlock = 256;
  EXPECT_LE(after.rows_scanned - before.rows_scanned,
            kTables * (10 + kBlock));
}

// ------------------------------------------------------------------
// Early-termination cancellation vs the parallel fan-out (TSan target).
// ------------------------------------------------------------------

class StreamingCancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 4000;
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

TEST_F(StreamingCancellationTest, CloseMidStreamRacesProducers) {
  // Directly drive the provider stream: pull a varying number of blocks
  // (including zero — Close before any Next cancels producers that may
  // not have started), then Close while the 10-table fan-out is running.
  for (int iter = 0; iter < 50; ++iter) {
    gremlin::LookupSpec spec;  // all tables
    Result<std::unique_ptr<gremlin::VertexStream>> stream =
        graph_->provider()->VerticesStreaming(spec);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<gremlin::VertexPtr> block;
    for (int pulls = 0; pulls < iter % 4; ++pulls) {
      if (!(*stream)->Next(&block, 8)) break;
      EXPECT_TRUE((*stream)->status().ok());
    }
    (*stream)->Close();
    (*stream)->Close();  // idempotent
  }
}

TEST_F(StreamingCancellationTest, CloseMidEdgeStreamRacesProducers) {
  // The same race on the edge stream: all ten edge tables fan out.
  for (int iter = 0; iter < 50; ++iter) {
    gremlin::LookupSpec spec;
    Result<std::unique_ptr<gremlin::EdgeStream>> stream =
        graph_->provider()->EdgesStreaming(spec);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::vector<gremlin::EdgePtr> block;
    for (int pulls = 0; pulls < iter % 4; ++pulls) {
      if (!(*stream)->Next(&block, 8)) break;
      EXPECT_TRUE((*stream)->status().ok());
    }
    (*stream)->Close();
    (*stream)->Close();  // idempotent
  }
}

TEST_F(StreamingCancellationTest, LimitQueriesCancelCleanly) {
  // The same race through the full stack: a saturated limit closes the
  // stream while per-table producers are mid-scan.
  for (int iter = 0; iter < 50; ++iter) {
    Result<std::vector<Traverser>> out =
        graph_->Execute("g.V().limit(" + std::to_string(1 + iter % 7) + ")");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), static_cast<size_t>(1 + iter % 7));
  }
}

}  // namespace
}  // namespace db2graph::core
