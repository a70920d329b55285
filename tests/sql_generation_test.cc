// Asserts the exact SQL the Graph Structure module generates for the
// paper's signature query shapes (Section 6's examples), via the SQL
// Dialect trace. This pins the compile-time strategies and the runtime
// optimizations to concrete statements.

#include <gtest/gtest.h>

#include "core/db2graph.h"

namespace db2graph::core {
namespace {

class SqlGenerationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Patient (
        patientID BIGINT PRIMARY KEY, name VARCHAR(40),
        address VARCHAR(40), subscriptionID BIGINT);
      CREATE TABLE Disease (
        diseaseID BIGINT PRIMARY KEY, conceptName VARCHAR(40));
      CREATE TABLE HasDisease (
        patientID BIGINT, diseaseID BIGINT, description VARCHAR(40));
      CREATE INDEX idx_hd_p ON HasDisease (patientID);
      INSERT INTO Patient VALUES (1, 'Alice', 'a', 101);
      INSERT INTO Disease VALUES (11, 't2d');
      INSERT INTO HasDisease VALUES (1, 11, 'dx');
    )sql")
                    .ok());
    auto graph = Db2Graph::Open(&db_, R"json({
      "v_tables": [
        {"table_name": "Patient", "prefixed_id": true,
         "id": "'patient'::patientID", "fix_label": true,
         "label": "'patient'",
         "properties": ["patientID", "name", "address", "subscriptionID"]},
        {"table_name": "Disease", "id": "diseaseID", "fix_label": true,
         "label": "'disease'", "properties": ["diseaseID", "conceptName"]}
      ],
      "e_tables": [
        {"table_name": "HasDisease", "src_v_table": "Patient",
         "src_v": "'patient'::patientID", "dst_v_table": "Disease",
         "dst_v": "diseaseID", "implicit_edge_id": true,
         "fix_label": true, "label": "'hasDisease'"}
      ]
    })json");
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
    graph_->dialect()->EnableTrace();
  }

  std::vector<std::string> Trace(const std::string& gremlin) {
    (void)graph_->dialect()->TakeTrace();
    auto out = graph_->Execute(gremlin);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << gremlin;
    return graph_->dialect()->TakeTrace();
  }

  // The SQL of Explain's non-pruned previews, in step order.
  static std::vector<std::string> Explained(Db2Graph* graph,
                                            const std::string& gremlin) {
    std::vector<std::string> sql;
    Result<Db2Graph::ExplainResult> explain = graph->Explain(gremlin);
    EXPECT_TRUE(explain.ok()) << explain.status().ToString() << " for "
                              << gremlin;
    if (!explain.ok()) return sql;
    for (const Json& step : explain->json.Find("steps")->items()) {
      for (const Json& stmt : step.Find("statements")->items()) {
        sql.push_back(stmt.Find("sql")->as_string());
      }
    }
    return sql;
  }

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(SqlGenerationTest, PredicatePushdownProducesWhereClause) {
  // The paper's Section 6.2 example: g.V().has('name', 'Alice') becomes
  // "SELECT ... WHERE name = 'Alice'" — on the one table having `name`.
  std::vector<std::string> sql = Trace("g.V().has('name', 'Alice')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"name\", \"address\", "
            "\"subscriptionID\" FROM \"Patient\" WHERE \"name\" = 'Alice'");
}

TEST_F(SqlGenerationTest, ProjectionPushdownNarrowsSelectList) {
  // g.V().values('name','address') fetches only id + projected columns.
  std::vector<std::string> sql = Trace("g.V().values('name', 'address')");
  ASSERT_EQ(sql.size(), 1u);  // Disease pruned: has neither property
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"name\", \"address\" FROM \"Patient\"");
}

TEST_F(SqlGenerationTest, AggregatePushdownProducesSelectCount) {
  std::vector<std::string> sql =
      Trace("g.V().hasLabel('disease').count()");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0], "SELECT COUNT(*) FROM \"Disease\"");
}

TEST_F(SqlGenerationTest, MutationSkipsTheVertexFetch) {
  // g.V(id).outE(lbl): exactly one SQL, on the edge table, by source id.
  std::vector<std::string> sql =
      Trace("g.V('patient::1').outE('hasDisease')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"diseaseID\", \"description\" FROM "
            "\"HasDisease\" WHERE \"patientID\" IN (1)");
}

TEST_F(SqlGenerationTest, CombinedGetLinkShape) {
  // The paper's combined example: one SELECT COUNT(*) with src + dst.
  std::vector<std::string> sql = Trace(
      "g.V('patient::1').outE('hasDisease').where(inV().hasId(11))"
      ".count()");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT COUNT(*) FROM \"HasDisease\" WHERE \"patientID\" IN (1)"
            " AND \"diseaseID\" IN (11)");
}

TEST_F(SqlGenerationTest, ImplicitEdgeIdBecomesConjunctivePredicates) {
  // Section 6.3: the implicit id decomposes into src/dst conjuncts.
  std::vector<std::string> sql =
      Trace("g.E('patient::1::hasDisease::11')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"diseaseID\", \"description\" FROM "
            "\"HasDisease\" WHERE ((\"patientID\" = 1 AND \"diseaseID\" = "
            "11))");
}

TEST_F(SqlGenerationTest, PrefixedIdPinsOneTableWithUnprefixedColumns) {
  // 'patient'::1 pins Patient and strips the constant prefix.
  std::vector<std::string> sql = Trace("g.V('patient::1')");
  ASSERT_EQ(sql.size(), 1u);
  EXPECT_EQ(sql[0],
            "SELECT \"patientID\", \"name\", \"address\", "
            "\"subscriptionID\" FROM \"Patient\" WHERE \"patientID\" IN "
            "(1)");
}

TEST_F(SqlGenerationTest, EndpointFetchQueriesOnlyTheDeclaredTable) {
  // e.inV(): dst_v_table = Disease, so exactly one vertex query follows
  // the edge query.
  std::vector<std::string> sql =
      Trace("g.V('patient::1').outE('hasDisease').inV()");
  ASSERT_EQ(sql.size(), 2u);
  EXPECT_EQ(sql[1],
            "SELECT \"diseaseID\", \"conceptName\" FROM \"Disease\" WHERE "
            "\"diseaseID\" IN (11)");
}

TEST_F(SqlGenerationTest, NaiveModeQueriesEveryTable) {
  Db2Graph::Options naive;
  naive.strategies = StrategyOptions::AllOff();
  naive.runtime = RuntimeOptions::AllOff();
  naive.exec = ExecConfig().vectorized(false);
  auto graph = Db2Graph::Open(&db_, graph_->topology().config());
  // Reuse the same overlay config through the existing graph's topology.
  ASSERT_TRUE(graph.ok());
  auto naive_graph =
      Db2Graph::Open(&db_, graph_->topology().config(), naive);
  ASSERT_TRUE(naive_graph.ok());
  (*naive_graph)->dialect()->EnableTrace();
  auto out = (*naive_graph)->Execute("g.V('patient::1').hasLabel('patient')");
  ASSERT_TRUE(out.ok());
  std::vector<std::string> sql = (*naive_graph)->dialect()->TakeTrace();
  // Both vertex tables queried; the prefixed id cannot pin, so Disease is
  // scanned wholesale and filtered client-side.
  ASSERT_EQ(sql.size(), 2u);
  EXPECT_NE(sql[0].find("FROM \"Patient\""), std::string::npos);
  EXPECT_EQ(sql[1], "SELECT \"diseaseID\", \"conceptName\" FROM \"Disease\"");
}

TEST_F(SqlGenerationTest, ExplainPreviewsTheStatementsThatRun) {
  // Each shape pinned above whose SQL the script alone determines: Explain
  // previews exactly the statements execution runs.
  const char* shapes[] = {
      "g.V().has('name', 'Alice')",
      "g.V().values('name', 'address')",
      "g.V().hasLabel('disease').count()",
      "g.V('patient::1').outE('hasDisease')",
      "g.V('patient::1').outE('hasDisease').where(inV().hasId(11))"
      ".count()",
      "g.E('patient::1::hasDisease::11')",
      "g.V('patient::1')",
  };
  for (const char* shape : shapes) {
    std::vector<std::string> explained = Explained(graph_.get(), shape);
    EXPECT_FALSE(explained.empty()) << shape;
    EXPECT_EQ(explained, Trace(shape)) << shape;
  }

  // The vertex half of out() and inV(): endpoint pruning keeps the one
  // table the edges' far endpoint is pinned to, probed by id. The ids
  // come from the fetched edges, so the preview shows them as "?".
  std::vector<std::string> explained;
  for (const char* endpoint :
       {"g.V('patient::1').outE('hasDisease').inV()",
        "g.V('patient::1').out('hasDisease')"}) {
    explained = Explained(graph_.get(), endpoint);
    std::vector<std::string> traced = Trace(endpoint);
    ASSERT_EQ(traced.size(), 2u) << endpoint;
    ASSERT_EQ(explained.size(), 2u) << endpoint;
    EXPECT_EQ(explained[0], traced[0]) << endpoint;
    std::string runtime_ids = traced[1];
    const size_t at = runtime_ids.rfind("IN (11)");
    ASSERT_NE(at, std::string::npos) << runtime_ids;
    runtime_ids.replace(at, 7, "IN (?)");
    EXPECT_EQ(explained[1], runtime_ids) << endpoint;
    Result<Db2Graph::ExplainResult> explain = graph_->Explain(endpoint);
    ASSERT_TRUE(explain.ok());
    const Json& vertex_step = explain->json.Find("steps")->items().back();
    ASSERT_EQ(vertex_step.Find("tables_consulted")->items().size(), 1u)
        << explain->text;
    EXPECT_EQ(vertex_step.Find("tables_consulted")->items().back().as_string(),
              "Disease");
    EXPECT_EQ(vertex_step.Find("statements")
                  ->items()
                  .back()
                  .Find("access_path")
                  ->as_string(),
              "index probe");
  }

  // Naive mode: the client-filtered table previews its full-row scan.
  Db2Graph::Options naive;
  naive.strategies = StrategyOptions::AllOff();
  naive.runtime = RuntimeOptions::AllOff();
  naive.exec = ExecConfig().vectorized(false);
  auto naive_graph =
      Db2Graph::Open(&db_, graph_->topology().config(), naive);
  ASSERT_TRUE(naive_graph.ok());
  (*naive_graph)->dialect()->EnableTrace();
  const char kNaive[] = "g.V('patient::1').hasLabel('patient')";
  explained = Explained(naive_graph->get(), kNaive);
  ASSERT_TRUE((*naive_graph)->Execute(kNaive).ok());
  EXPECT_EQ(explained, (*naive_graph)->dialect()->TakeTrace());
}

TEST(EndpointPruningSqlTest, EveryEdgeTablePrunedIssuesNoEdgeSql) {
  // No edge table has City as its source table, so out() from a city
  // prunes every edge table and only the vertex fetch reaches SQL.
  sql::Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE Person (id BIGINT PRIMARY KEY);
    CREATE TABLE City (id BIGINT PRIMARY KEY);
    CREATE TABLE LivesIn (src BIGINT, dst BIGINT);
    INSERT INTO Person VALUES (1);
    INSERT INTO City VALUES (20);
    INSERT INTO LivesIn VALUES (1, 20);
  )sql")
                  .ok());
  auto graph = Db2Graph::Open(&db, R"json({
    "v_tables": [
      {"table_name": "Person", "id": "id", "fix_label": true,
       "label": "'person'", "properties": []},
      {"table_name": "City", "id": "id", "fix_label": true,
       "label": "'city'", "properties": []}
    ],
    "e_tables": [
      {"table_name": "LivesIn", "src_v_table": "Person", "src_v": "src",
       "dst_v_table": "City", "dst_v": "dst", "implicit_edge_id": true,
       "fix_label": true, "label": "'livesIn'"}
    ]
  })json");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  (*graph)->dialect()->EnableTrace();
  auto out = (*graph)->Execute("g.V().hasLabel('city').out()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty());
  EXPECT_EQ((*graph)->dialect()->TakeTrace(),
            std::vector<std::string>{"SELECT \"id\" FROM \"City\""});
}

}  // namespace
}  // namespace db2graph::core
