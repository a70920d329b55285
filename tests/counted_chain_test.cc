// Counted join stages against walk-count oracles. A collapsed Gremlin
// chain ending in count() becomes one grouped COUNT(*) join whose last
// vertex stage is answered from posting-run lengths; its counts must equal
// the walks the native graph store counts, on a graph with parallel
// edges, self loops, a hub and repeated start ids (walk counts, not
// distinct counts). A last hop that carries its own predicate keeps
// visiting rows, and EXPLAIN ANALYZE shows which stages were counted.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/native_graph.h"
#include "common/exec_config.h"
#include "common/query_log.h"
#include "core/db2graph.h"
#include "gremlin/interpreter.h"
#include "gremlin/parser.h"
#include "sql/database.h"

namespace db2graph::core {
namespace {

constexpr int64_t kVertices = 30;

class CountedChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE person (id BIGINT PRIMARY KEY, version BIGINT);
      CREATE TABLE knows (src BIGINT, dst BIGINT, w BIGINT);
      CREATE INDEX idx_knows_src ON knows (src);
      CREATE INDEX idx_knows_dst ON knows (dst);
    )sql")
                    .ok());
    for (int64_t i = 0; i < kVertices; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO person VALUES (" +
                              std::to_string(i) + ", " +
                              std::to_string(i % 7) + ")")
                      .ok());
      ASSERT_TRUE(native_
                      .AddVertex(Value(i), "person",
                                 {{"version", Value(i % 7)}})
                      .ok());
    }
    std::mt19937_64 rng(7);
    auto edge = [&](int64_t src, int64_t dst) {
      const int64_t w = (src + 2 * dst) % 4;
      ASSERT_TRUE(db_.Execute("INSERT INTO knows VALUES (" +
                              std::to_string(src) + ", " +
                              std::to_string(dst) + ", " +
                              std::to_string(w) + ")")
                      .ok());
      ASSERT_TRUE(native_
                      .AddEdge(Value(next_edge_id_++), "knows", Value(src),
                               Value(dst), {{"w", Value(w)}})
                      .ok());
    };
    for (int64_t i = 0; i < kVertices; ++i) {
      edge(i, static_cast<int64_t>(rng() % kVertices));
      edge(i, static_cast<int64_t>(rng() % kVertices));
      if (i % 5 == 0) {  // parallel edges
        edge(i, (i + 1) % kVertices);
        edge(i, (i + 1) % kVertices);
      }
      if (i % 6 == 0) edge(i, i);  // self loop
      if (i > 0) edge(0, i);       // the hub's fan-out...
      if (i % 3 == 0) edge(i, 0);  // ...and fan-in
    }
    ASSERT_TRUE(native_.Finalize().ok());
    ASSERT_TRUE(native_.Open().ok());
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(&db_, R"json({
      "v_tables": [{"table_name": "person", "id": "id", "fix_label": true,
                    "label": "'person'", "properties": ["version"]}],
      "e_tables": [{"table_name": "knows", "src_v_table": "person",
                    "src_v": "src", "dst_v_table": "person", "dst_v": "dst",
                    "implicit_edge_id": true, "fix_label": true,
                    "label": "'knows'", "properties": ["w"]}]
    })json");
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  void TearDown() override {
    QueryLog::Global().SetEnabled(false);
    QueryLog::Global().Clear();
  }

  int64_t NativeCount(const std::string& text) {
    Result<gremlin::Script> script = gremlin::ParseGremlin(text);
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    if (!script.ok()) return -1;
    gremlin::Interpreter interp(&native_);
    Result<std::vector<gremlin::Traverser>> out = interp.RunScript(*script);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << text;
    if (!out.ok() || out->size() != 1) return -1;
    return (*out)[0].value.as_int();
  }

  // The ids a vertex-returning `text` (ending in .id()) yields, sorted:
  // the native store and Db2 Graph may order walks differently.
  std::vector<Value> SortedIds(const std::string& text, bool native) {
    Result<std::vector<gremlin::Traverser>> out = [&] {
      if (!native) return graph_->Execute(text);
      Result<gremlin::Script> script = gremlin::ParseGremlin(text);
      if (!script.ok()) {
        return Result<std::vector<gremlin::Traverser>>(script.status());
      }
      gremlin::Interpreter interp(&native_);
      return interp.RunScript(*script);
    }();
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << text;
    std::vector<Value> ids;
    if (!out.ok()) return ids;
    for (const gremlin::Traverser& t : *out) ids.push_back(t.value);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  int64_t Db2Count(const std::string& text, ExecOptions options = {}) {
    Result<std::vector<gremlin::Traverser>> out =
        graph_->Execute(text, options);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << text;
    if (!out.ok() || out->size() != 1) return -1;
    return (*out)[0].value.as_int();
  }

  // Runs `text` profiled and returns the EXPLAIN ANALYZE rendering of its
  // multi-hop statement (the one joining a second edge stage).
  std::string MultiHopPlan(const std::string& text, int64_t* count) {
    QueryLog::Global().Clear();
    QueryLog::Global().SetEnabled(true);
    ExecOptions options;
    options.config = ExecConfig().profile(true);
    *count = Db2Count(text, options);
    for (const QueryLog::Entry& entry : QueryLog::Global().Entries()) {
      if (entry.layer == "sql" && entry.plan.find("[e1 ") != std::string::npos) {
        return entry.plan;
      }
    }
    return "";
  }

  static std::string PlanLine(const std::string& plan,
                              const std::string& label) {
    size_t at = plan.find(label);
    if (at == std::string::npos) return "";
    size_t end = plan.find('\n', at);
    return plan.substr(at, end == std::string::npos ? end : end - at);
  }

  sql::Database db_;
  baselines::NativeGraphDb native_;
  std::unique_ptr<Db2Graph> graph_;
  int64_t next_edge_id_ = 1000;
};

TEST_F(CountedChainTest, WalkCountsMatchTheNativeStore) {
  const std::vector<std::string> starts = {
      "g.V(3)", "g.V(0)", "g.V(5, 5, 12)", "g.V(0, 6, 0)",
      "g.V().has('version', 2)"};
  const std::vector<std::string> hops = {"out('knows')", "in('knows')"};
  int compared = 0;
  for (const std::string& start : starts) {
    for (int n = 1; n <= 4; ++n) {
      for (size_t mix = 0; mix < 2; ++mix) {
        std::string text = start;
        for (int h = 0; h < n; ++h) {
          // mix 0: all out(); mix 1: alternate out() and in().
          text += "." + hops[mix == 1 ? static_cast<size_t>(h % 2) : 0];
        }
        text += ".count()";
        const int64_t expected = NativeCount(text);
        EXPECT_EQ(Db2Count(text), expected) << text;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 40);
  // The collapsed joins ran, and none fell back to step-at-a-time.
  OptimizerLog::Counters counters = graph_->optimizer_log()->counters();
  EXPECT_GT(counters.executions, 0u);
  EXPECT_EQ(counters.fallbacks, 0u);
}

TEST_F(CountedChainTest, IdSourcedChainsAreOneStatement) {
  // g.V(ids) followed by hops: the mutated first hop (out, in, or an
  // outE/inE pair with an edge predicate, optionally with has() on its
  // vertices) joins the chain, so each query is one SELECT. Starts cover
  // the hub (0), parallel edges (multiples of 5), self loops (multiples
  // of 6), and repeated and missing ids; walk counts and the returned
  // vertices match the native store.
  const std::vector<std::string> starts = {
      "g.V(0)", "g.V(5, 5, 12)", "g.V(6, 77)", "g.V(77)",
      "g.V(30, 10, 0, 10)"};
  const std::vector<std::string> first_hops = {
      "out('knows')", "in('knows')",
      "outE('knows').has('w', gte(1)).inV()",
      "out('knows').has('version', lte(4))",
      "inE('knows').has('w', lt(3)).outV()"};
  const std::vector<std::string> rests = {".out('knows').out('knows')",
                                          ".in('knows').out()"};
  const uint64_t executions0 = graph_->optimizer_log()->counters().executions;
  int compared = 0;
  for (const std::string& start : starts) {
    for (const std::string& first : first_hops) {
      for (const std::string& rest : rests) {
        const std::string chain = start + "." + first + rest;
        const std::string counted = chain + ".count()";
        const uint64_t selects = db_.stats().Snapshot().selects;
        EXPECT_EQ(Db2Count(counted), NativeCount(counted)) << counted;
        EXPECT_EQ(db_.stats().Snapshot().selects, selects + 1) << counted;
        const std::string returned = chain + ".id()";
        EXPECT_EQ(SortedIds(returned, /*native=*/false),
                  SortedIds(returned, /*native=*/true))
            << returned;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 50);
  OptimizerLog::Counters counters = graph_->optimizer_log()->counters();
  EXPECT_EQ(counters.executions, executions0 + 2 * 50);
  EXPECT_EQ(counters.fallbacks, 0u);

  // Unlabeled hops over the one edge table: one source step, 3 hops.
  Result<gremlin::Script> script =
      graph_->Compile("g.V(1).out().out().out().count()");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto& steps = script->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 1u) << script->statements[0].traversal.ToString();
  EXPECT_EQ(steps[0].kind, gremlin::StepKind::kMultiHop);
  EXPECT_TRUE(steps[0].IdSourced());
  ASSERT_NE(steps[0].multi_hop, nullptr);
  EXPECT_EQ(steps[0].multi_hop->hops.size(), 3u);
  EXPECT_EQ(steps[0].multi_hop->agg, gremlin::AggOp::kCount);
}

TEST_F(CountedChainTest, ExplainAnalyzeShowsTheCountedLastStage) {
  int64_t walks = 0;
  const std::string text =
      "g.V(0, 6, 0).out('knows').out('knows').out('knows').count()";
  const std::string plan = MultiHopPlan(text, &walks);
  ASSERT_FALSE(plan.empty()) << "no multi-hop statement was logged";
  EXPECT_EQ(walks, NativeCount(text));
  // The whole chain, the first hop from the start ids included, is one
  // 6-stage join. Its last vertex stage is counted; the edge stage before
  // it still visits its rows, since the counted stage's probe reads them.
  EXPECT_NE(PlanLine(plan, "Scan [e0 index probe]"), "") << plan;
  EXPECT_NE(PlanLine(plan, "Join [v3 index probe, counted]"), "") << plan;
  const std::string edge_stage = PlanLine(plan, "Join [e2 ");
  ASSERT_NE(edge_stage, "") << plan;
  EXPECT_EQ(edge_stage.find("counted"), std::string::npos) << plan;
}

TEST_F(CountedChainTest, ProfileAndExplainListTheSameConsultedChain) {
  // A collapsed chain runs as one join, so profile() files one consulted
  // entry for it, named as Explain names the join it previews.
  const std::string text =
      "g.V(1).out('knows').out('knows').out('knows').count()";
  auto multi_hop_consulted = [](const Json& doc) {
    std::vector<std::string> tables;
    for (const Json& step : doc.Find("steps")->items()) {
      if (step.Find("step")->as_string() != "MultiHopStep") continue;
      for (const Json& table : step.Find("tables_consulted")->items()) {
        tables.push_back(table.as_string());
      }
    }
    return tables;
  };
  Result<Db2Graph::ExplainResult> explain = graph_->Explain(text);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::vector<std::string> explained =
      multi_hop_consulted(explain->json);
  EXPECT_EQ(explained, std::vector<std::string>{
                           "knows>person>knows>person>knows>person"})
      << explain->text;

  Result<std::vector<gremlin::Traverser>> profiled =
      graph_->Execute(text + ".profile()");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_EQ(profiled->size(), 1u);
  Result<Json> profile = Json::Parse((*profiled)[0].value.as_string());
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(multi_hop_consulted(*profile), explained)
      << (*profiled)[0].value.as_string();
}

TEST_F(CountedChainTest, CountedSqlStagesNeverChangeAResult) {
  // COUNT(dst) counts the same rows (dst is never NULL here) but reads a
  // column, so its stage is not counted: the row path is the reference.
  auto count = [&](const std::string& select, const std::string& rest,
                   const std::vector<Value>& params, sql::ExecInfo* exec) {
    Result<sql::PreparedStatement> stmt = db_.Prepare(select + rest);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    if (!stmt.ok()) return int64_t{-1};
    Result<sql::ResultSet> rs = stmt->Execute(params);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for " << rest;
    if (!rs.ok() || rs->rows.size() != 1) return int64_t{-1};
    if (exec != nullptr) *exec = rs->exec;
    return rs->rows[0].back().as_int();
  };
  struct Case {
    std::string where;
    std::vector<Value> params;
  };
  const std::vector<Case> cases = {
      {"src = 0", {}},
      {"src = ?", {Value(int64_t{0})}},
      {"src = ?", {Value::Null()}},  // a NULL key counts 0
      {"src = 0.0", {}},             // mixed types count what = matches
      {"src = '0'", {}},
      {"src = 0.5", {}},
      {"src IN (0, 0, 0.0, 6)", {}},  // a repeated key counts once
      {"src IN (NULL, 6)", {}},
  };
  for (const Case& c : cases) {
    sql::ExecInfo counted;
    const int64_t rows = count("SELECT COUNT(*)", " FROM knows WHERE " + c.where,
                               c.params, &counted);
    EXPECT_EQ(rows, count("SELECT COUNT(dst)", " FROM knows WHERE " + c.where,
                          c.params, nullptr))
        << c.where;
    EXPECT_EQ(counted.rows_scanned, 0u) << c.where;
  }

  // A counted last stage under GROUP BY: rows_scanned holds the edge
  // stage's rows only, and the plan labels the counted stage.
  const std::string chain =
      " FROM knows AS e0, person AS v1 WHERE e0.src IN (0, 6) "
      "AND v1.id = e0.dst GROUP BY e0.src";
  sql::ExecInfo exec;
  const int64_t walks =
      count("SELECT e0.src, COUNT(*)", chain + " HAVING e0.src = 0", {}, &exec);
  EXPECT_EQ(walks, count("SELECT e0.src, COUNT(v1.version)",
                         chain + " HAVING e0.src = 0", {}, nullptr));
  EXPECT_EQ(walks, NativeCount("g.V(0).out('knows').count()"));
  Result<sql::ResultSet> analyzed =
      db_.Execute("EXPLAIN ANALYZE SELECT e0.src, COUNT(*)" + chain);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string plan;
  for (const Row& line : analyzed->rows) plan += line[0].as_string() + "\n";
  EXPECT_NE(plan.find("Join [v1 index probe, counted]"), std::string::npos)
      << plan;
  EXPECT_EQ(analyzed->exec.rows_scanned,
            static_cast<uint64_t>(
                count("SELECT COUNT(*)", " FROM knows WHERE src IN (0, 6)", {},
                      nullptr)))
      << plan;
}

TEST_F(CountedChainTest, LastHopPredicateKeepsVisitingRows) {
  // has() on the last hop's vertices is a residual predicate on that
  // stage: it is not counted, its rows are visited, and the walks it
  // keeps still match.
  for (const char* text :
       {"g.V(0, 6, 0).out('knows').out('knows').out('knows')"
        ".has('version', gt(3)).count()",
        "g.V(5, 5, 12).out('knows').in('knows').out('knows')"
        ".has('version', gt(3)).count()"}) {
    int64_t walks = 0;
    const std::string plan = MultiHopPlan(text, &walks);
    ASSERT_FALSE(plan.empty()) << "no multi-hop statement for " << text;
    EXPECT_EQ(walks, NativeCount(text)) << text;
    const std::string last = PlanLine(plan, "Join [v3 ");
    ASSERT_NE(last, "") << plan;
    EXPECT_EQ(last.find("counted"), std::string::npos) << plan;
    EXPECT_EQ(plan.find("counted"), std::string::npos) << plan;
  }
}

}  // namespace
}  // namespace db2graph::core
