// End-to-end tests for Db2 Graph: Gremlin over relational tables through
// the overlay, the Section 6.2 strategies, the Section 6.3 runtime
// optimizations (asserted through provider/engine counters), the
// graphQuery table function inside SQL, and freshness under updates.

#include <limits>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/db2graph.h"
#include "core/sql_dialect.h"
#include "overlay/auto_overlay.h"
#include "sql/executor.h"

namespace db2graph::core {
namespace {

using gremlin::StepKind;
using gremlin::Traverser;

constexpr char kPaperConfig[] = R"json({
  "v_tables": [
    {
      "table_name": "Patient",
      "prefixed_id": true,
      "id": "'patient'::patientID",
      "fix_label": true,
      "label": "'patient'",
      "properties": ["patientID", "name", "address", "subscriptionID"]
    },
    {
      "table_name": "Disease",
      "id": "diseaseID",
      "fix_label": true,
      "label": "'disease'",
      "properties": ["diseaseID", "conceptCode", "conceptName"]
    }
  ],
  "e_tables": [
    {
      "table_name": "DiseaseOntology",
      "src_v_table": "Disease",
      "src_v": "sourceID",
      "dst_v_table": "Disease",
      "dst_v": "targetID",
      "prefixed_edge_id": true,
      "id": "'ontology'::sourceID::targetID",
      "label": "type"
    },
    {
      "table_name": "HasDisease",
      "src_v_table": "Patient",
      "src_v": "'patient'::patientID",
      "dst_v_table": "Disease",
      "dst_v": "diseaseID",
      "implicit_edge_id": true,
      "fix_label": true,
      "label": "'hasDisease'"
    }
  ]
})json";

class Db2GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Patient (
        patientID BIGINT PRIMARY KEY,
        name VARCHAR(100),
        address VARCHAR(200),
        subscriptionID BIGINT
      );
      CREATE TABLE Disease (
        diseaseID BIGINT PRIMARY KEY,
        conceptCode VARCHAR(20),
        conceptName VARCHAR(100)
      );
      CREATE TABLE DiseaseOntology (
        sourceID BIGINT,
        targetID BIGINT,
        type VARCHAR(20),
        FOREIGN KEY (sourceID) REFERENCES Disease (diseaseID),
        FOREIGN KEY (targetID) REFERENCES Disease (diseaseID)
      );
      CREATE TABLE HasDisease (
        patientID BIGINT,
        diseaseID BIGINT,
        description VARCHAR(200),
        FOREIGN KEY (patientID) REFERENCES Patient (patientID),
        FOREIGN KEY (diseaseID) REFERENCES Disease (diseaseID)
      );
      CREATE INDEX idx_hd_patient ON HasDisease (patientID);
      CREATE INDEX idx_hd_disease ON HasDisease (diseaseID);
      CREATE INDEX idx_do_source ON DiseaseOntology (sourceID);
      CREATE INDEX idx_do_target ON DiseaseOntology (targetID);
      INSERT INTO Patient VALUES
        (1, 'Alice', '1 Main St', 101),
        (2, 'Bob', '2 Oak Ave', 102),
        (3, 'Carol', '3 Pine Rd', 103);
      INSERT INTO Disease VALUES
        (10, 'D10', 'diabetes'),
        (11, 'D11', 'type 2 diabetes'),
        (12, 'D12', 'hypertension'),
        (13, 'D13', 'metabolic disorder');
      INSERT INTO HasDisease VALUES
        (1, 11, 'diagnosed 2019'),
        (2, 12, 'diagnosed 2020'),
        (3, 11, 'diagnosed 2021');
      INSERT INTO DiseaseOntology VALUES
        (11, 10, 'isa'),
        (10, 13, 'isa'),
        (12, 13, 'isa');
    )sql")
                    .ok());
    Result<std::unique_ptr<Db2Graph>> graph =
        Db2Graph::Open(&db_, kPaperConfig);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  std::vector<Traverser> Run(const std::string& script) {
    Result<std::vector<Traverser>> out = graph_->Execute(script);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << script;
    return out.ok() ? *out : std::vector<Traverser>{};
  }

  Value Single(const std::string& script) {
    std::vector<Traverser> out = Run(script);
    EXPECT_EQ(out.size(), 1u) << script;
    if (out.empty()) return Value::Null();
    return out[0].kind == Traverser::Kind::kValue ? out[0].value
                                                  : out[0].DedupKey();
  }

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

// ---------------------------------------------------------- basic reads

TEST_F(Db2GraphTest, CountsVerticesAcrossBothVertexTables) {
  EXPECT_EQ(Single("g.V().count()"), Value(int64_t{7}));
}

TEST_F(Db2GraphTest, CountsEdgesAcrossBothEdgeTables) {
  EXPECT_EQ(Single("g.E().count()"), Value(int64_t{6}));
}

TEST_F(Db2GraphTest, VertexByPrefixedId) {
  std::vector<Traverser> out = Run("g.V('patient::1')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->label, "patient");
  const Value* name = out[0].vertex->FindProperty("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(*name, Value("Alice"));
}

TEST_F(Db2GraphTest, VertexByPlainIntegerId) {
  std::vector<Traverser> out = Run("g.V(11)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex->label, "disease");
}

TEST_F(Db2GraphTest, LabelFiltering) {
  EXPECT_EQ(Single("g.V().hasLabel('patient').count()"), Value(int64_t{3}));
  EXPECT_EQ(Single("g.V().hasLabel('disease').count()"), Value(int64_t{4}));
  EXPECT_EQ(Single("g.E().hasLabel('isa').count()"), Value(int64_t{3}));
  EXPECT_EQ(Single("g.E().hasLabel('hasDisease').count()"),
            Value(int64_t{3}));
}

TEST_F(Db2GraphTest, PropertyPredicate) {
  std::vector<Traverser> out =
      Run("g.V().has('name', 'Alice').values('address')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, Value("1 Main St"));
}

TEST_F(Db2GraphTest, TraversalAcrossTables) {
  // Alice -> her disease -> its conceptName.
  std::vector<Traverser> out = Run(
      "g.V('patient::1').out('hasDisease').values('conceptName')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, Value("type 2 diabetes"));
}

TEST_F(Db2GraphTest, ReverseTraversal) {
  EXPECT_EQ(Single("g.V(11).in('hasDisease').count()"), Value(int64_t{2}));
}

TEST_F(Db2GraphTest, ColumnMappedEdgeLabel) {
  // DiseaseOntology's label comes from the 'type' column.
  std::vector<Traverser> out = Run("g.V(11).outE('isa')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].edge->label, "isa");
  EXPECT_EQ(out[0].edge->dst_id, Value(int64_t{10}));
}

TEST_F(Db2GraphTest, ImplicitEdgeIdComposition) {
  std::vector<Traverser> out = Run("g.V('patient::1').outE('hasDisease')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].edge->id, Value("patient::1::hasDisease::11"));
  // And looking the edge up by that id round-trips.
  out = Run("g.E('patient::1::hasDisease::11')");
  ASSERT_EQ(out.size(), 1u);
  const Value* desc = out[0].edge->FindProperty("description");
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(*desc, Value("diagnosed 2019"));
}

TEST_F(Db2GraphTest, PrefixedExplicitEdgeId) {
  std::vector<Traverser> out = Run("g.E('ontology::11::10')");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].edge->label, "isa");
}

TEST_F(Db2GraphTest, EdgeEndpointSteps) {
  EXPECT_EQ(Single("g.V('patient::1').outE('hasDisease').inV().id()"),
            Value(int64_t{11}));
  EXPECT_EQ(Single("g.V('patient::1').outE('hasDisease').outV().id()"),
            Value("patient::1"));
}

TEST_F(Db2GraphTest, SectionFourSimilarDiseaseScenario) {
  std::vector<Traverser> out = Run(
      "similar = g.V().hasLabel('patient').has('patientID', 1)"
      ".out('hasDisease')"
      ".repeat(out('isa').dedup().store('x')).times(2)"
      ".repeat(in('isa').dedup().store('x')).times(2)"
      ".cap('x').next();"
      "g.V(similar).in('hasDisease').dedup()"
      ".values('patientID', 'subscriptionID')");
  // Similar diseases reach {10,13} then {11,12,10}; their patients are
  // Alice, Bob and Carol -> 3 patients x 2 values.
  EXPECT_EQ(out.size(), 6u);
}

// ------------------------------------------------- strategy plan rewrites

TEST_F(Db2GraphTest, PredicatePushdownFoldsHasSteps) {
  Result<gremlin::Script> compiled =
      graph_->Compile("g.V().hasLabel('patient').has('name', 'Alice')");
  ASSERT_TRUE(compiled.ok());
  const auto& steps = compiled->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].kind, StepKind::kGraph);
  EXPECT_EQ(steps[0].spec.labels, std::vector<std::string>{"patient"});
  ASSERT_EQ(steps[0].spec.predicates.size(), 1u);
  EXPECT_EQ(steps[0].spec.predicates[0].key, "name");
}

TEST_F(Db2GraphTest, AggregatePushdownFoldsCount) {
  Result<gremlin::Script> compiled = graph_->Compile("g.V().count()");
  ASSERT_TRUE(compiled.ok());
  const auto& steps = compiled->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].spec.agg, gremlin::AggOp::kCount);
}

TEST_F(Db2GraphTest, GraphStepVertexStepMutationSkipsVertexFetch) {
  Result<gremlin::Script> compiled =
      graph_->Compile("g.V('patient::1').outE('hasDisease').count()");
  ASSERT_TRUE(compiled.ok());
  const auto& steps = compiled->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 1u);  // one GraphStep on edges, count folded
  EXPECT_TRUE(steps[0].graph_emits_edges);
  EXPECT_EQ(steps[0].src_id_args.size(), 1u);
  EXPECT_EQ(steps[0].spec.agg, gremlin::AggOp::kCount);
}

TEST_F(Db2GraphTest, GetLinkShapeFoldsEndpointConstraint) {
  Result<gremlin::Script> compiled = graph_->Compile(
      "g.V('patient::1').outE('hasDisease').where(inV().hasId(11))");
  ASSERT_TRUE(compiled.ok());
  const auto& steps = compiled->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].dst_id_args.size(), 1u);
  // And it executes correctly.
  EXPECT_EQ(Single("g.V('patient::1').outE('hasDisease')"
                   ".where(inV().hasId(11)).count()"),
            Value(int64_t{1}));
  EXPECT_EQ(Single("g.V('patient::1').outE('hasDisease')"
                   ".where(inV().hasId(12)).count()"),
            Value(int64_t{0}));
}

TEST_F(Db2GraphTest, MutationPreservesOutSemantics) {
  Result<gremlin::Script> compiled =
      graph_->Compile("g.V('patient::1').out('hasDisease')");
  ASSERT_TRUE(compiled.ok());
  const auto& steps = compiled->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_TRUE(steps[0].graph_emits_edges);
  EXPECT_EQ(steps[1].kind, StepKind::kEdgeVertex);
  EXPECT_EQ(steps[1].direction, gremlin::Direction::kIn);
}

// Every query must produce identical results with strategies disabled.
TEST_F(Db2GraphTest, StrategiesPreserveResults) {
  Db2Graph::Options naive;
  naive.strategies = StrategyOptions::AllOff();
  Result<std::unique_ptr<Db2Graph>> unoptimized =
      Db2Graph::Open(&db_, kPaperConfig, naive);
  ASSERT_TRUE(unoptimized.ok());
  const char* queries[] = {
      "g.V().count()",
      "g.E().count()",
      "g.V().hasLabel('patient').count()",
      "g.V().has('name', 'Alice').values('address')",
      "g.V('patient::1').outE('hasDisease').count()",
      "g.V('patient::1').out('hasDisease').values('conceptName')",
      "g.V(11).in('hasDisease').count()",
      "g.V(11).repeat(out('isa').dedup().store('x')).times(2)"
      ".cap('x')",
      "g.V('patient::1').outE('hasDisease').where(inV().hasId(11)).count()",
      "g.V().hasLabel('patient').values('subscriptionID').sum()",
      "g.V().hasLabel('disease').values('conceptName').order()",
  };
  for (const char* q : queries) {
    Result<std::vector<Traverser>> a = graph_->Execute(q);
    Result<std::vector<Traverser>> b = (*unoptimized)->Execute(q);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
    ASSERT_EQ(a->size(), b->size()) << q;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].DedupKey(), (*b)[i].DedupKey()) << q;
    }
  }
}

// ------------------------------------------ data-dependent optimizations

TEST_F(Db2GraphTest, FixedLabelPruningSkipsNonMatchingTables) {
  graph_->provider()->stats().Reset();
  Run("g.V().hasLabel('patient')");
  EXPECT_EQ(graph_->provider()->stats().Snapshot().vertex_tables_queried, 1u);
  EXPECT_EQ(graph_->provider()->stats().Snapshot().vertex_tables_pruned, 1u);
}

TEST_F(Db2GraphTest, PrefixedIdPinsExactTable) {
  graph_->provider()->stats().Reset();
  Run("g.V('patient::1')");
  EXPECT_EQ(graph_->provider()->stats().Snapshot().vertex_tables_queried, 1u);
  EXPECT_EQ(graph_->provider()->stats().Snapshot().vertex_tables_pruned, 1u);
}

TEST_F(Db2GraphTest, PropertyNamePruningSkipsTablesWithoutTheProperty) {
  graph_->provider()->stats().Reset();
  Run("g.V().has('conceptCode', 'D10')");
  // Only Disease has conceptCode.
  EXPECT_EQ(graph_->provider()->stats().Snapshot().vertex_tables_queried, 1u);
  EXPECT_EQ(graph_->provider()->stats().Snapshot().vertex_tables_pruned, 1u);
}

TEST_F(Db2GraphTest, ImplicitEdgeIdNarrowsByEncodedLabel) {
  graph_->provider()->stats().Reset();
  Run("g.E('patient::1::hasDisease::11')");
  // The ontology table is pruned: its explicit-id definition cannot
  // produce this id.
  EXPECT_EQ(graph_->provider()->stats().Snapshot().edge_tables_queried, 1u);
  EXPECT_EQ(graph_->provider()->stats().Snapshot().edge_tables_pruned, 1u);
}

TEST_F(Db2GraphTest, EndpointTablePruningOnAdjacency) {
  graph_->provider()->stats().Reset();
  // Patient vertices: only HasDisease can have them as sources.
  Run("g.V('patient::1').out('hasDisease')");
  EXPECT_EQ(graph_->provider()->stats().Snapshot().edge_tables_queried, 1u);
}

TEST_F(Db2GraphTest, SrcIdDecompositionUsesIndexProbes) {
  db_.stats().Reset();
  Run("g.V('patient::1').outE('hasDisease')");
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
}

TEST_F(Db2GraphTest, RuntimeOptimizationsPreserveResults) {
  Db2Graph::Options naive;
  naive.runtime = RuntimeOptions::AllOff();
  // One block: no block boundaries, scalar SQL.
  naive.exec = ExecConfig()
                   .block_rows(std::numeric_limits<size_t>::max())
                   .vectorized(false);
  Result<std::unique_ptr<Db2Graph>> unoptimized =
      Db2Graph::Open(&db_, kPaperConfig, naive);
  ASSERT_TRUE(unoptimized.ok());
  const char* queries[] = {
      "g.V().count()",
      "g.V('patient::1')",
      "g.V('patient::2').out('hasDisease')",
      "g.V(11).in('hasDisease').values('name').order()",
      "g.E('patient::1::hasDisease::11')",
      "g.E('ontology::11::10')",
      "g.V().hasLabel('disease').has('conceptCode', 'D12')",
  };
  for (const char* q : queries) {
    Result<std::vector<Traverser>> a = graph_->Execute(q);
    Result<std::vector<Traverser>> b = (*unoptimized)->Execute(q);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
    ASSERT_EQ(a->size(), b->size()) << q;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].DedupKey(), (*b)[i].DedupKey()) << q;
    }
  }
}

// ---------------------------------------------------- synergy & freshness

TEST_F(Db2GraphTest, GraphQueryTableFunctionInsideSql) {
  ASSERT_TRUE(graph_->RegisterGraphQueryFunction().ok());
  Result<sql::ResultSet> rs = db_.Execute(
      "SELECT p.name FROM Patient p, "
      "TABLE (graphQuery('gremlin', "
      "'g.V(11).in(''hasDisease'').values(''patientID'')')) "
      "AS t (pid BIGINT) "
      "WHERE p.patientID = t.pid ORDER BY p.name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0], Value("Alice"));
  EXPECT_EQ(rs->rows[1][0], Value("Carol"));
}

TEST_F(Db2GraphTest, GraphQueryMultiColumnRows) {
  ASSERT_TRUE(graph_->RegisterGraphQueryFunction().ok());
  Result<sql::ResultSet> rs = db_.Execute(
      "SELECT t.pid, t.sub FROM "
      "TABLE (graphQuery('gremlin', "
      "'g.V().hasLabel(''patient'').values(''patientID'', "
      "''subscriptionID'')')) AS t (pid BIGINT, sub BIGINT) "
      "ORDER BY t.pid");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 3u);
  EXPECT_EQ(rs->rows[0][1], Value(int64_t{101}));
}

TEST_F(Db2GraphTest, GraphSeesRelationalUpdatesImmediately) {
  EXPECT_EQ(Single("g.V().hasLabel('patient').count()"), Value(int64_t{3}));
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Patient VALUES (4, 'Dave', '4 Elm', 104)")
          .ok());
  EXPECT_EQ(Single("g.V().hasLabel('patient').count()"), Value(int64_t{4}));
  ASSERT_TRUE(
      db_.Execute("INSERT INTO HasDisease VALUES (4, 12, 'new dx')").ok());
  EXPECT_EQ(Single("g.V(12).in('hasDisease').count()"), Value(int64_t{2}));
  // Transactional rollback is invisible to the graph afterwards.
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(
      db_.Execute("DELETE FROM HasDisease WHERE patientID = 4").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  EXPECT_EQ(Single("g.V(12).in('hasDisease').count()"), Value(int64_t{2}));
}

TEST_F(Db2GraphTest, DerivedEdgesThroughViews) {
  // The "surprising benefit" (Section 5): patient -> ontology parent via a
  // non-materialized join view mapped as an edge table.
  ASSERT_TRUE(db_.Execute(
                     "CREATE VIEW PatientParentDisease AS "
                     "SELECT h.patientID AS pid, o.targetID AS parent "
                     "FROM HasDisease h JOIN DiseaseOntology o "
                     "ON h.diseaseID = o.sourceID")
                  .ok());
  overlay::OverlayConfig config =
      *overlay::OverlayConfig::Parse(kPaperConfig);
  overlay::EdgeTableConf derived;
  derived.table_name = "PatientParentDisease";
  derived.src_v_table = "Patient";
  derived.src_v = *overlay::FieldDef::Parse("'patient'::pid");
  derived.dst_v_table = "Disease";
  derived.dst_v = *overlay::FieldDef::Parse("parent");
  derived.implicit_edge_id = true;
  derived.label.fixed = true;
  derived.label.value = "hasParentDisease";
  config.e_tables.push_back(derived);

  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db_, config);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Result<std::vector<Traverser>> out = (*graph)->Execute(
      "g.V('patient::1').out('hasParentDisease').values('conceptName')");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value("diabetes"));  // 11 -isa-> 10

  // Deleting the underlying edge removes the derived edge automatically.
  ASSERT_TRUE(
      db_.Execute("DELETE FROM DiseaseOntology WHERE sourceID = 11").ok());
  out = (*graph)->Execute("g.V('patient::1').out('hasParentDisease')");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST_F(Db2GraphTest, AutoOverlayGraphIsQueryable) {
  Result<overlay::OverlayConfig> config = overlay::AutoOverlay(db_);
  ASSERT_TRUE(config.ok());
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db_, *config);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Result<std::vector<Traverser>> out =
      (*graph)->Execute("g.V().hasLabel('Patient').count()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value(int64_t{3}));
  // AutoOverlay's FK-pair edge labels work too.
  out = (*graph)->Execute(
      "g.V('Patient::1').out('Patient_HasDisease_Disease').count()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].value, Value(int64_t{1}));
}

// ------------------------------------------------------- dialect module

TEST_F(Db2GraphTest, TemplateCacheHitsOnRepeatedQueries) {
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db_, kPaperConfig);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  (*graph)->dialect()->ResetCounters();
  for (int i = 0; i < 5; ++i) {
    Result<std::vector<Traverser>> out = (*graph)->Execute(
        "g.V('patient::" + std::to_string(1 + i % 3) + "')");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  EXPECT_GT((*graph)->dialect()->template_cache_hits(), 0u);
  EXPECT_GE((*graph)->dialect()->queries_issued(), 5u);
}

// The provider's cached template for a vertex-table lookup stays correct
// when the table is recreated with its columns in another order: the
// template's compiled section is rebuilt, not read at stale offsets.
TEST_F(Db2GraphTest, CachedTemplateFollowsRecreatedVertexTable) {
  EXPECT_EQ(Single("g.V(11).values('conceptName')"),
            Value("type 2 diabetes"));
  EXPECT_EQ(Single("g.V(12).values('conceptCode')"), Value("D12"));
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    DROP TABLE Disease;
    CREATE TABLE Disease (
      conceptName VARCHAR(100),
      diseaseID BIGINT PRIMARY KEY,
      conceptCode VARCHAR(20)
    );
    INSERT INTO Disease VALUES
      ('diabetes', 10, 'D10'),
      ('type 2 diabetes (revised)', 11, 'D11'),
      ('hypertension', 12, 'D12'),
      ('metabolic disorder', 13, 'D13');
  )sql")
                  .ok());
  EXPECT_EQ(Single("g.V(11).values('conceptName')"),
            Value("type 2 diabetes (revised)"));
  EXPECT_EQ(Single("g.V(12).values('conceptCode')"), Value("D12"));
}

// One handle executed 1,000 times materialized and 1,000 times streaming,
// through PreparedStatement and through the dialect's template cache,
// compiles its section exactly once, and once more after a CREATE INDEX.
TEST_F(Db2GraphTest, CompileOncePerHandleAndOncePerDdl) {
  metrics::Counter* compiles = metrics::MetricsRegistry::Global().GetCounter(
      sql::SelectSection::kCompilesCounter);
  const std::string text =
      "SELECT conceptName FROM Disease WHERE diseaseID = ?";
  Result<sql::PreparedStatement> prepared = db_.Prepare(text);
  ASSERT_TRUE(prepared.ok());
  SqlDialect dialect(&db_);
  auto replay = [&]() {
    for (int i = 0; i < 1000; ++i) {
      const std::vector<Value> params = {Value(int64_t{10 + i % 4})};
      Result<sql::ResultSet> rs = prepared->Execute(params);
      ASSERT_TRUE(rs.ok());
      ASSERT_EQ(rs->rows.size(), 1u);
      Result<std::unique_ptr<sql::RowStream>> stream =
          prepared->ExecuteStreaming(params);
      ASSERT_TRUE(stream.ok());
      sql::RowBlock block;
      ASSERT_TRUE((*stream)->Next(&block));
      (*stream)->Close();
      rs = dialect.QueryShaped("disease-by-id", [&] { return text; }, params);
      ASSERT_TRUE(rs.ok());
      ASSERT_EQ(rs->rows.size(), 1u);
      Result<std::unique_ptr<DialectRowStream>> shaped =
          dialect.QueryShapedStreaming("disease-by-id",
                                       [&] { return text; }, params);
      ASSERT_TRUE(shaped.ok());
      ASSERT_TRUE((*shaped)->Next(&block));
      (*shaped)->Close();
    }
  };
  const uint64_t before = compiles->load();
  replay();
  // One section per handle: the PreparedStatement's and the dialect's.
  EXPECT_EQ(compiles->load() - before, 2u);
  ASSERT_TRUE(
      db_.Execute("CREATE INDEX idx_disease_code ON Disease (conceptCode)")
          .ok());
  replay();
  EXPECT_EQ(compiles->load() - before, 4u);
  EXPECT_EQ(dialect.skeleton_cache_misses(), 1u);
  EXPECT_EQ(dialect.template_cache_misses(), 1u);
  EXPECT_EQ(dialect.skeleton_cache_hits(), 3999u);
  EXPECT_EQ(dialect.template_cache_hits(), 3999u);
  // The counter is a registry metric, so sysmon.metrics shows it.
  Result<sql::ResultSet> metric = db_.Execute(
      "SELECT value FROM sysmon.metrics WHERE name = 'sql.compiles'");
  ASSERT_TRUE(metric.ok()) << metric.status().ToString();
  ASSERT_EQ(metric->rows.size(), 1u);
  EXPECT_GE(metric->rows[0][0].as_int(),
            static_cast<int64_t>(before + 4));
}

// A shape whose text fails to prepare keeps that text cached, as the
// skeleton: each later call, materialized or streaming, is a skeleton hit
// and a template miss that fails again without generating the SQL anew.
TEST_F(Db2GraphTest, FailingShapeKeepsItsSkeleton) {
  SqlDialect dialect(&db_);
  dialect.EnableTrace();
  int built = 0;
  auto build = [&] {
    ++built;
    return std::string("SELEC conceptName FROM Disease");
  };
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(dialect.QueryShaped("broken", build, {}).ok());
  }
  EXPECT_FALSE(dialect.QueryShapedStreaming("broken", build, {}).ok());
  EXPECT_EQ(built, 1);
  EXPECT_EQ(dialect.skeleton_cache_misses(), 1u);
  EXPECT_EQ(dialect.skeleton_cache_hits(), 2u);
  EXPECT_EQ(dialect.template_cache_misses(), 3u);
  EXPECT_EQ(dialect.template_cache_hits(), 0u);
  EXPECT_EQ(dialect.TakeTrace(),
            std::vector<std::string>(3, "SELEC conceptName FROM Disease"));
}

TEST_F(Db2GraphTest, IndexAdvisorSuggestsFrequentPatterns) {
  // 'name' predicates on Patient, repeatedly, with no index on name
  // (pattern recording is sampled 1-in-8, hence the query count).
  for (int i = 0; i < 200; ++i) {
    Run("g.V().has('name', 'Alice')");
  }
  std::vector<SqlDialect::IndexSuggestion> suggestions =
      graph_->dialect()->SuggestIndexes();
  bool found = false;
  for (const auto& s : suggestions) {
    if (s.table == "Patient" &&
        s.columns == std::vector<std::string>{"name"}) {
      found = true;
      EXPECT_NE(s.ddl.find("CREATE INDEX"), std::string::npos);
      // Applying the advice works.
      EXPECT_TRUE(db_.Execute(s.ddl).ok());
    }
  }
  EXPECT_TRUE(found);
  // Indexed patterns are no longer suggested.
  suggestions = graph_->dialect()->SuggestIndexes();
  for (const auto& s : suggestions) {
    EXPECT_FALSE(s.table == "Patient" &&
                 s.columns == std::vector<std::string>{"name"});
  }
}

// A table with a primary key and a foreign key serves as both a vertex
// table and an edge table (the star-schema fact-table case). e.outV()
// then needs no SQL at all: the vertex is built from the edge's own row
// (Section 6.3, "When A Vertex Table Is Also An Edge Table").
TEST_F(Db2GraphTest, VertexFromEdgeShortcutAvoidsSql) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE Visit (
      visitID BIGINT PRIMARY KEY,
      patientID BIGINT,
      note VARCHAR(40),
      FOREIGN KEY (patientID) REFERENCES Patient (patientID)
    );
    INSERT INTO Visit VALUES (500, 1, 'checkup'), (501, 2, 'follow-up');
  )sql")
                  .ok());
  overlay::OverlayConfig config =
      *overlay::OverlayConfig::Parse(kPaperConfig);
  overlay::VertexTableConf visit_vertex;
  visit_vertex.table_name = "Visit";
  visit_vertex.prefixed_id = true;
  visit_vertex.id = *overlay::FieldDef::Parse("'visit'::visitID");
  visit_vertex.label.fixed = true;
  visit_vertex.label.value = "visit";
  visit_vertex.properties = {"note"};
  visit_vertex.properties_specified = true;
  config.v_tables.push_back(visit_vertex);
  overlay::EdgeTableConf visit_edge;
  visit_edge.table_name = "Visit";
  visit_edge.src_v_table = "Visit";
  visit_edge.src_v = *overlay::FieldDef::Parse("'visit'::visitID");
  visit_edge.dst_v_table = "Patient";
  visit_edge.dst_v = *overlay::FieldDef::Parse("'patient'::patientID");
  visit_edge.implicit_edge_id = true;
  visit_edge.label.fixed = true;
  visit_edge.label.value = "visitOf";
  config.e_tables.push_back(visit_edge);

  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db_, config);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  // outV() of a visitOf edge is the Visit row itself.
  (*graph)->provider()->stats().Reset();
  db_.stats().Reset();
  Result<std::vector<Traverser>> out = (*graph)->Execute(
      "g.E('visit::500::visitOf::patient::1').outV().values('note')");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value("checkup"));
  EXPECT_GE((*graph)->provider()->stats().Snapshot().shortcut_vertices, 1u);
  // Exactly one SQL (the edge fetch); the vertex came from the same row.
  EXPECT_EQ(db_.stats().Snapshot().selects, 1u);

  // With the shortcut disabled the same query needs a second SELECT.
  Db2Graph::Options no_shortcut;
  no_shortcut.runtime.vertex_from_edge_shortcut = false;
  Result<std::unique_ptr<Db2Graph>> plain =
      Db2Graph::Open(&db_, config, no_shortcut);
  ASSERT_TRUE(plain.ok());
  db_.stats().Reset();
  out = (*plain)->Execute(
      "g.E('visit::500::visitOf::patient::1').outV().values('note')");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value("checkup"));
  EXPECT_EQ(db_.stats().Snapshot().selects, 2u);
}

// The AutoOverlay-catalog integration the paper lists as future work:
// AutoGraph regenerates its overlay whenever DDL has run.
TEST_F(Db2GraphTest, AutoGraphFollowsDdlChanges) {
  Result<AutoGraph> auto_graph = AutoGraph::Open(&db_);
  ASSERT_TRUE(auto_graph.ok()) << auto_graph.status().ToString();
  auto out = auto_graph->Execute("g.V().hasLabel('Patient').count()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].value, Value(int64_t{3}));

  // New DDL + data: the next Execute() sees the new vertex table without
  // any manual overlay work.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE Clinic (clinicID BIGINT PRIMARY KEY, name VARCHAR(20));
    INSERT INTO Clinic VALUES (1, 'North'), (2, 'South');
  )sql")
                  .ok());
  out = auto_graph->Execute("g.V().hasLabel('Clinic').count()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].value, Value(int64_t{2}));

  // Plain DML does not force a reopen.
  Result<Db2Graph*> before = auto_graph->Get();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO Clinic VALUES (3, 'East')").ok());
  Result<Db2Graph*> after = auto_graph->Get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);  // same graph object
  out = auto_graph->Execute("g.V().hasLabel('Clinic').count()");
  EXPECT_EQ((*out)[0].value, Value(int64_t{3}));
}

TEST_F(Db2GraphTest, StalenessFlagTracksDdl) {
  EXPECT_FALSE(graph_->OverlayMayBeStale());
  ASSERT_TRUE(db_.Execute("CREATE TABLE Extra (x BIGINT)").ok());
  EXPECT_TRUE(graph_->OverlayMayBeStale());
}

// Composite vertex ids: a two-column primary key composes into one id
// ('ord'::region::num) and lookups decompose it back into conjunctive
// predicates (the OR-group SQL path).
TEST_F(Db2GraphTest, CompositeVertexIdsRoundTrip) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE Orders (
      region VARCHAR(8),
      num BIGINT,
      total BIGINT,
      PRIMARY KEY (region, num)
    );
    INSERT INTO Orders VALUES ('east', 1, 100), ('east', 2, 250),
      ('west', 1, 75);
  )sql")
                  .ok());
  const char* overlay = R"json({
    "v_tables": [{"table_name": "Orders", "prefixed_id": true,
                  "id": "'ord'::region::num", "fix_label": true,
                  "label": "'order'", "properties": ["total"]}]
  })json";
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db_, overlay);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // Composition.
  Result<std::vector<Traverser>> out =
      (*graph)->Execute("g.V().hasLabel('order').id().order()");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].value, Value("ord::east::1"));
  // Decomposition (multi-column OR-group lookup), and multi-id form.
  out = (*graph)->Execute("g.V('ord::east::2').values('total')");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value(int64_t{250}));
  out = (*graph)->Execute(
      "g.V('ord::east::1', 'ord::west::1').values('total').sum()");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].value, Value(int64_t{175}));
  // Mismatched prefix or arity matches nothing.
  out = (*graph)->Execute("g.V('ord::north::9').count()");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].value, Value(int64_t{0}));
}

TEST_F(Db2GraphTest, OpenFailsOnBadOverlay) {
  EXPECT_FALSE(Db2Graph::Open(&db_, "not json").ok());
  EXPECT_FALSE(
      Db2Graph::Open(&db_, R"({"v_tables": [{"table_name": "Nope",
        "id": "x", "fix_label": true, "label": "'n'"}]})")
          .ok());
}

// ---------------------------------------------------- aggregate pushdown

TEST(AggregatePushdownEquivalenceTest, PushedAggregatesMatchClientSide) {
  // Two vertex tables and two edge tables carry an int and a double
  // property (with NULLs); City and LivesIn carry neither, so the pushed
  // aggregate skips them. Doubles are binary fractions, so per-table
  // partial sums add up exactly as the client-side fold does.
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE Person (id BIGINT PRIMARY KEY, age BIGINT, score DOUBLE);
    CREATE TABLE Robot (id BIGINT PRIMARY KEY, age BIGINT, score DOUBLE);
    CREATE TABLE City (id BIGINT PRIMARY KEY, name VARCHAR(20));
    CREATE TABLE Knows (src BIGINT, dst BIGINT, since BIGINT, weight DOUBLE);
    CREATE TABLE Built (src BIGINT, dst BIGINT, since BIGINT, weight DOUBLE);
    CREATE TABLE LivesIn (src BIGINT, dst BIGINT);
    INSERT INTO Person VALUES (1, 30, 0.5), (2, 41, 2.25), (3, NULL, 1.75);
    INSERT INTO Robot VALUES (10, 3, 8.5), (11, 7, NULL);
    INSERT INTO City VALUES (20, 'Oslo');
    INSERT INTO Knows VALUES (1, 2, 2001, 0.25), (1, 3, 1999, 1.5),
                             (2, 3, NULL, 0.75);
    INSERT INTO Built VALUES (10, 11, 2020, 4.5), (11, 10, 2021, NULL);
    INSERT INTO LivesIn VALUES (1, 20), (10, 20);
  )sql")
                  .ok());
  constexpr char kConfig[] = R"json({
    "v_tables": [
      {"table_name": "Person", "id": "id", "fix_label": true,
       "label": "'person'", "properties": ["age", "score"]},
      {"table_name": "Robot", "id": "id", "fix_label": true,
       "label": "'robot'", "properties": ["age", "score"]},
      {"table_name": "City", "id": "id", "fix_label": true,
       "label": "'city'", "properties": ["name"]}
    ],
    "e_tables": [
      {"table_name": "Knows", "src_v_table": "Person", "src_v": "src",
       "dst_v_table": "Person", "dst_v": "dst", "implicit_edge_id": true,
       "fix_label": true, "label": "'knows'",
       "properties": ["since", "weight"]},
      {"table_name": "Built", "src_v_table": "Robot", "src_v": "src",
       "dst_v_table": "Robot", "dst_v": "dst", "implicit_edge_id": true,
       "fix_label": true, "label": "'built'",
       "properties": ["since", "weight"]},
      {"table_name": "LivesIn", "src_v_table": "Person", "src_v": "src",
       "dst_v_table": "City", "dst_v": "dst", "implicit_edge_id": true,
       "fix_label": true, "label": "'livesIn'"}
    ]
  })json";
  Result<std::unique_ptr<Db2Graph>> pushed = Db2Graph::Open(&db, kConfig);
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  Db2Graph::Options client_side;
  client_side.strategies.aggregate_pushdown = false;
  Result<std::unique_ptr<Db2Graph>> folded =
      Db2Graph::Open(&db, kConfig, client_side);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  (*pushed)->dialect()->EnableTrace();

  const char* prefixes[] = {
      "g.V().values('age')",                        // int, City lacks it
      "g.V().values('score')",                      // double
      "g.V().hasLabel('city').values('age')",       // empty: table lacks it
      "g.V().has('age', gt(100)).values('age')",    // empty: no row matches
      "g.E().values('since')",
      "g.E().values('weight')",
      "g.V(1).outE('knows').values('weight')",      // edge GraphStep
      "g.V(1, 2, 10).outE('knows', 'built').values('since')",
      "g.V(20).outE('knows').values('weight')",     // empty: no such edges
      "g.V().outE('knows').values('weight')",       // adjacency step
  };
  const char* aggregates[] = {"count", "sum", "mean", "min", "max"};
  size_t pushed_statements = 0;
  for (const char* prefix : prefixes) {
    for (const char* agg : aggregates) {
      const std::string q = std::string(prefix) + "." + agg + "()";
      (void)(*pushed)->dialect()->TakeTrace();
      Result<std::vector<Traverser>> a = (*pushed)->Execute(q);
      for (const std::string& sql : (*pushed)->dialect()->TakeTrace()) {
        pushed_statements += sql.rfind("SELECT COUNT(", 0) == 0 ||
                             sql.rfind("SELECT SUM(", 0) == 0 ||
                             sql.rfind("SELECT MIN(", 0) == 0 ||
                             sql.rfind("SELECT MAX(", 0) == 0;
      }
      Result<std::vector<Traverser>> b = (*folded)->Execute(q);
      ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
      ASSERT_EQ(a->size(), 1u) << q;
      ASSERT_EQ(b->size(), 1u) << q;
      const Value& got = (*a)[0].value;
      const Value& want = (*b)[0].value;
      EXPECT_EQ(got.ToString(), want.ToString()) << q;
      EXPECT_EQ(got.is_null(), want.is_null()) << q;
      EXPECT_EQ(got.is_int(), want.is_int()) << q;
    }
  }
  // The GraphStep shapes above really ran as per-table aggregate SQL.
  EXPECT_GE(pushed_statements, 40u);
}

}  // namespace
}  // namespace db2graph::core
