// Copyright (c) 2026 The db2graph-repro Authors.
//
// The compile-once/execute-many surface: Prepare()/PreparedQuery with bind
// variables, the transparent plan cache behind the text Execute() path
// (zero ParseGremlin calls on a hit, counter-verified), DDL staleness
// invalidation, binding validation statuses, plan provenance in
// Explain()/profile(), ExecOptions covering the removed execution
// wrappers, and a concurrent Prepare/Execute/DDL stress (TSan target).

#include <atomic>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/db2graph.h"
#include "core/plan_cache.h"
#include "gremlin/parser.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

uint64_t ParseCalls() {
  return metrics::MetricsRegistry::Global()
      .GetCounter(gremlin::kParseCallsCounter)
      ->load();
}

constexpr char kConfig[] = R"json({
  "v_tables": [{"table_name": "N", "id": "id", "fix_label": true,
                "label": "'n'", "properties": ["score"]}],
  "e_tables": [{"table_name": "E2", "src_v_table": "N", "src_v": "src",
                "dst_v_table": "N", "dst_v": "dst",
                "implicit_edge_id": true, "fix_label": true,
                "label": "'e'"}]
})json";

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE N (id BIGINT PRIMARY KEY, score BIGINT);
      CREATE TABLE E2 (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
      CREATE INDEX idx_src ON E2 (src);
      INSERT INTO N VALUES (1, 10), (2, 20), (3, 30);
      INSERT INTO E2 VALUES (100, 1, 2), (101, 2, 3), (102, 1, 3);
    )sql")
                    .ok());
    auto graph = Db2Graph::Open(&db_, kConfig);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  // Bumps the catalog ddl_version without touching the overlay's tables.
  void BumpDdl() {
    static std::atomic<int> n{0};
    std::string name = "DdlBump" + std::to_string(n.fetch_add(1));
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE " + name + " (id BIGINT PRIMARY KEY)")
            .ok());
  }

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

// ----------------------------------------------------------------------
// Prepared execution with bindings
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, PreparedQueryExecutesWithDifferentBindings) {
  Result<PreparedQuery> prepared = graph_->Prepare("g.V(vid).out('e').id()");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->unbound_variables(),
            std::vector<std::string>{"vid"});

  auto r1 = prepared->Execute({{"vid", {Value(int64_t{1})}}});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->size(), 2u);  // 1 -> 2, 1 -> 3

  auto r2 = prepared->Execute({{"vid", {Value(int64_t{2})}}});
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->size(), 1u);  // 2 -> 3
  EXPECT_EQ((*r2)[0].value, Value(int64_t{3}));

  // A bind slot may supply several ids at once.
  auto r3 = prepared->Execute(
      {{"vid", {Value(int64_t{1}), Value(int64_t{2})}}});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 3u);
}

TEST_F(PlanCacheTest, PredicateBindingsFilterPerExecution) {
  Result<PreparedQuery> prepared =
      graph_->Prepare("g.V().has('score', gt(threshold)).id()");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto over15 = prepared->Execute({{"threshold", {Value(int64_t{15})}}});
  ASSERT_TRUE(over15.ok()) << over15.status().ToString();
  EXPECT_EQ(over15->size(), 2u);  // scores 20, 30

  auto over25 = prepared->Execute({{"threshold", {Value(int64_t{25})}}});
  ASSERT_TRUE(over25.ok());
  ASSERT_EQ(over25->size(), 1u);
  EXPECT_EQ((*over25)[0].value, Value(int64_t{3}));
}

TEST_F(PlanCacheTest, PreparedExecutionNeverReparsesTheScript) {
  Result<PreparedQuery> prepared = graph_->Prepare("g.V(vid).out('e').id()");
  ASSERT_TRUE(prepared.ok());
  uint64_t parses_before = ParseCalls();
  for (int i = 1; i <= 3; ++i) {
    auto out = prepared->Execute({{"vid", {Value(int64_t{i})}}});
    ASSERT_TRUE(out.ok());
  }
  EXPECT_EQ(ParseCalls(), parses_before)
      << "prepared executions must not call ParseGremlin";
}

// ----------------------------------------------------------------------
// Transparent text-path caching
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, RepeatedTextExecutionHitsCacheWithZeroParses) {
  const std::string script = "g.V(1).out('e').id()";
  auto first = graph_->Execute(script);
  ASSERT_TRUE(first.ok());
  PlanCache::Counts after_first = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  uint64_t parses_before = ParseCalls();
  auto second = graph_->Execute(script);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), first->size());
  EXPECT_EQ(ParseCalls(), parses_before)
      << "a cached plan must execute with zero ParseGremlin calls";
  PlanCache::Counts after_second = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, 1u);
}

TEST_F(PlanCacheTest, CacheCountersLandInMetricsRegistry) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  uint64_t hits_before =
      registry.GetCounter(PlanCache::kHitsCounter)->load();
  uint64_t misses_before =
      registry.GetCounter(PlanCache::kMissesCounter)->load();
  ASSERT_TRUE(graph_->Execute("g.V(2).id()").ok());
  ASSERT_TRUE(graph_->Execute("g.V(2).id()").ok());
  EXPECT_EQ(registry.GetCounter(PlanCache::kMissesCounter)->load(),
            misses_before + 1);
  EXPECT_EQ(registry.GetCounter(PlanCache::kHitsCounter)->load(),
            hits_before + 1);
}

TEST_F(PlanCacheTest, OptingOutOfTheCacheReparsesEveryTime) {
  ExecOptions no_cache;
  no_cache.use_plan_cache = false;
  ASSERT_TRUE(graph_->Execute("g.V(1).id()", no_cache).ok());
  uint64_t parses_before = ParseCalls();
  ASSERT_TRUE(graph_->Execute("g.V(1).id()", no_cache).ok());
  EXPECT_EQ(ParseCalls(), parses_before + 1);
  EXPECT_EQ(graph_->plan_cache()->size(), 0u);
}

// ----------------------------------------------------------------------
// Statement concentration: id literals as per-execution bind slots
// ----------------------------------------------------------------------

// Ids of a result stream, in order.
std::vector<Value> Ids(const Result<std::vector<Traverser>>& out) {
  std::vector<Value> ids;
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return ids;
  for (const Traverser& t : *out) ids.push_back(t.value);
  return ids;
}

std::vector<Value> Ints(std::initializer_list<int64_t> values) {
  std::vector<Value> out;
  for (int64_t v : values) out.emplace_back(v);
  return out;
}

TEST(ConcentrateIdLiteralsTest, SlotsOnlyWholeIdArguments) {
  gremlin::ConcentratedScript shape;
  const std::string text = "g.V(-3).out('e').hasId(7L, 'a').limit(2)";
  ASSERT_TRUE(gremlin::ConcentrateIdLiterals(text, &shape));
  EXPECT_EQ(shape.shape, "g.V(__c0).out('e').hasId(__c1, __c2).limit(2)");
  ASSERT_EQ(shape.values.size(), 3u);
  EXPECT_EQ(shape.values[0], Value(int64_t{-3}));
  EXPECT_EQ(shape.values[1], Value(int64_t{7}));
  EXPECT_EQ(shape.values[2], Value("a"));
  EXPECT_EQ(shape.offsets,
            (std::vector<size_t>{text.find("-3"), text.find("7L"),
                                 text.find("'a'")}));

  // Labels, has() values, predicate arguments and variables stay.
  ASSERT_TRUE(gremlin::ConcentrateIdLiterals(
      "x = g.V(1).has('score', 10).hasLabel('n').next(); "
      "g.V(x, 2).where(inV().hasId(within(3, 4)))",
      &shape));
  EXPECT_EQ(shape.shape,
            "x = g.V(__c0).has('score', 10).hasLabel('n').next(); "
            "g.V(x, __c1).where(inV().hasId(within(3, 4)))");

  // Declined: a double, an escape, a comment, the reserved prefix, and
  // text the lexer rejects.
  for (const char* declined :
       {"g.V(1).has('score', gt(1.5))", "g.V('a\\'b')", "g.V(1) // c",
        "g.V(__c0)", "g.V(1).has('k', 'x__cy')", "g.V('open", "g.V(1) #"}) {
    EXPECT_FALSE(gremlin::ConcentrateIdLiterals(declined, &shape))
        << declined;
  }
}

TEST_F(PlanCacheTest, DifferentIdLiteralsShareOnePlan) {
  ASSERT_EQ(Ids(graph_->Execute("g.V(1).out('e').id()")), Ints({2, 3}));
  uint64_t parses_before = ParseCalls();
  ASSERT_EQ(Ids(graph_->Execute("g.V(2).out('e').id()")), Ints({3}));
  ASSERT_EQ(Ids(graph_->Execute("g.V(3).out('e').id()")), Ints({}));
  EXPECT_EQ(ParseCalls(), parses_before)
      << "a new id in a known text shape must not parse";
  PlanCache::Counts counts = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(counts.misses, 1u);
  EXPECT_EQ(counts.hits, 2u);
  EXPECT_EQ(graph_->plan_cache()->size(), 1u);
}

TEST_F(PlanCacheTest, LabelsAndLimitsStayInTheKey) {
  ASSERT_EQ(Ids(graph_->Execute("g.V(1).hasLabel('n').id()")), Ints({1}));
  ASSERT_EQ(Ids(graph_->Execute("g.V(1).hasLabel('m').id()")), Ints({}));
  ASSERT_EQ(Ids(graph_->Execute("g.V().limit(1).id()")), Ints({1}));
  ASSERT_EQ(Ids(graph_->Execute("g.V().limit(2).id()")), Ints({1, 2}));
  PlanCache::Counts counts = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(counts.misses, 4u);
  EXPECT_EQ(counts.hits, 0u);
}

TEST_F(PlanCacheTest, ConcentratesNegativeLongRepeatedAndMixedIds) {
  ExecOptions raw;
  raw.use_plan_cache = false;
  ExecOptions with_x;
  with_x.bindings = {{"x", {Value(int64_t{3})}}};
  ExecOptions raw_with_x = with_x;
  raw_with_x.use_plan_cache = false;
  struct Case {
    std::string script;
    const ExecOptions* options;
    const ExecOptions* raw_options;
  };
  // Each pair shares a shape: the second script runs the first's plan.
  const std::vector<Case> cases = {
      {"g.V(-3).id()", nullptr, &raw},
      {"g.V(1).id()", nullptr, &raw},
      {"g.V(7L).out('e').id()", nullptr, &raw},
      {"g.V(1L).out('e').id()", nullptr, &raw},
      {"g.V(1, 1).id()", nullptr, &raw},
      {"g.V(2, 3).id()", nullptr, &raw},
      {"g.V(1, x).id()", &with_x, &raw_with_x},
      {"g.V(2, x).id()", &with_x, &raw_with_x},
  };
  for (const Case& c : cases) {
    Result<std::vector<Traverser>> out =
        c.options != nullptr ? graph_->Execute(c.script, *c.options)
                             : graph_->Execute(c.script);
    EXPECT_EQ(Ids(out), Ids(graph_->Execute(c.script, *c.raw_options)))
        << c.script;
  }
  EXPECT_EQ(Ids(graph_->Execute("g.V(1, 1).id()")), Ints({1}));
  EXPECT_EQ(Ids(graph_->Execute("g.V(1, x).id()", with_x)), Ints({1, 3}));
  PlanCache::Counts counts = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(counts.misses, 4u);
  EXPECT_EQ(counts.hits, 6u);
  EXPECT_EQ(graph_->plan_cache()->size(), 4u);
}

TEST_F(PlanCacheTest, DeclinedTextsKeepTheRawKey) {
  for (const std::string& script :
       {std::string("g.V(1).has('score', gt(1.5)).id()"),
        std::string("g.V('x\\'y').id()"),
        std::string("g.V(1).id() // one")}) {
    ASSERT_TRUE(graph_->Execute(script).ok()) << script;
    ASSERT_TRUE(graph_->Execute(script).ok()) << script;
  }
  // A different id in a declined text is a different key.
  ASSERT_TRUE(graph_->Execute("g.V(2).has('score', gt(1.5)).id()").ok());
  PlanCache::Counts counts = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(counts.misses, 4u);
  EXPECT_EQ(counts.hits, 3u);

  // Text naming the reserved prefix is a plain variable reference: the
  // caller's binding is used, never a slot.
  ExecOptions options;
  options.bindings = {{"__c0", {Value(int64_t{2})}}};
  EXPECT_EQ(Ids(graph_->Execute("g.V(__c0).id()", options)), Ints({2}));
  options.bindings = {{"__c0", {Value(int64_t{3})}}};
  EXPECT_EQ(Ids(graph_->Execute("g.V(__c0).id()", options)), Ints({3}));
  EXPECT_EQ(graph_->plan_cache()->Snapshot().hits, 4u);
}

TEST_F(PlanCacheTest, LiteralKeyedShapeKeepsItsIdFold) {
  // Without the GraphStep::VertexStep mutation, hasId() after out() folds
  // into the adjacency step's LookupSpec: the literal shapes the plan, so
  // the shape stays keyed on each text as written.
  Db2Graph::Options options;
  options.strategies.graphstep_vertexstep_mutation = false;
  auto graph = Db2Graph::Open(&db_, kConfig, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Db2Graph* g = graph->get();
  EXPECT_EQ(Ids(g->Execute("g.V(1).out('e').hasId(2).id()")), Ints({2}));
  EXPECT_EQ(Ids(g->Execute("g.V(1).out('e').hasId(3).id()")), Ints({3}));
  EXPECT_EQ(Ids(g->Execute("g.V(2).out('e').hasId(2).id()")), Ints({}));
  uint64_t parses_before = ParseCalls();
  EXPECT_EQ(Ids(g->Execute("g.V(1).out('e').hasId(3).id()")), Ints({3}));
  EXPECT_EQ(ParseCalls(), parses_before);
  PlanCache::Counts counts = g->plan_cache()->Snapshot();
  EXPECT_EQ(counts.misses, 3u);
  EXPECT_EQ(counts.hits, 1u);

  // The fold is still there: the far-vertex lookup is constrained by id.
  auto explain = g->Explain("g.V(1).out('e').hasId(3)");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const Json* steps = explain->json.Find("steps");
  ASSERT_NE(steps, nullptr);
  bool id_constrained = false;
  for (const Json& step : steps->items()) {
    if (step.Find("step")->as_string() != "VertexStep") continue;
    for (const Json& stmt : step.Find("statements")->items()) {
      const std::string& sql = stmt.Find("sql")->as_string();
      id_constrained |= sql.find("FROM \"N\" WHERE \"id\" IN (3)") !=
                        std::string::npos;
    }
  }
  EXPECT_TRUE(id_constrained) << explain->text;

  // With the mutation on, the fold happens on a second out(): the folded
  // ids filter the far endpoints.
  EXPECT_EQ(Ids(graph_->Execute("g.V(1).out('e').out('e').hasId(3).id()")),
            Ints({3}));
  EXPECT_EQ(Ids(graph_->Execute("g.V(1).out('e').out('e').hasId(2).id()")),
            Ints({}));
}

TEST_F(PlanCacheTest, DdlAndStatsDriftStillRecompileConcentratedEntries) {
  ASSERT_EQ(Ids(graph_->Execute("g.V(1).out('e').id()")), Ints({2, 3}));
  BumpDdl();
  uint64_t parses_before = ParseCalls();
  ASSERT_EQ(Ids(graph_->Execute("g.V(2).out('e').id()")), Ints({3}));
  EXPECT_EQ(ParseCalls(), parses_before + 1);
  EXPECT_EQ(graph_->plan_cache()->Snapshot().invalidations, 1u);

  Db2Graph::Options options;
  options.optimizer.stats_drift_limit = 2;
  auto graph = Db2Graph::Open(&db_, kConfig, options);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Db2Graph* g = graph->get();
  // A two-hop chain: the optimizer examines it, so the plan is
  // statistics-sensitive.
  ASSERT_EQ(
      Ids(g->Execute("g.V(1).has('score', gte(0)).out('e').out('e').id()")),
      Ints({3}));
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    INSERT INTO E2 VALUES (103, 3, 1), (104, 3, 2), (105, 2, 1);
    INSERT INTO N VALUES (4, 40), (5, 50);
  )sql")
                  .ok());
  uint64_t stale_before =
      metrics::MetricsRegistry::Global()
          .GetCounter(PlanCache::kStaleStatsRecompilesCounter)
          ->load();
  parses_before = ParseCalls();
  const std::string drifted =
      "g.V(2).has('score', gte(0)).out('e').out('e').id()";
  std::vector<Value> ids = Ids(g->Execute(drifted));
  EXPECT_EQ(ids.size(), 4u);
  ExecOptions raw;
  raw.use_plan_cache = false;
  EXPECT_EQ(ids, Ids(g->Execute(drifted, raw)));
  EXPECT_EQ(ParseCalls(), parses_before + 2);  // the recompile + raw
  EXPECT_EQ(metrics::MetricsRegistry::Global()
                .GetCounter(PlanCache::kStaleStatsRecompilesCounter)
                ->load(),
            stale_before + 1);
}

TEST_F(PlanCacheTest, EachExecuteCountsOneHitOrMiss) {
  Db2Graph::Options no_mutation;
  no_mutation.strategies.graphstep_vertexstep_mutation = false;
  auto other = Db2Graph::Open(&db_, kConfig, no_mutation);
  ASSERT_TRUE(other.ok());
  for (Db2Graph* g : {graph_.get(), other->get()}) {
    const std::vector<std::string> scripts = {
        "g.V(1).out('e').id()",          "g.V(2).out('e').id()",
        "g.V().count()",                 "g.V().count()",
        "g.V(1).out('e').hasId(2)",      "g.V(1).out('e').hasId(3)",
        "g.V(1).out('e').hasId(3)",      "g.V(1).has('score', gt(0.5))",
        "g.V(1).has('score', gt(0.5))",  "g.V(1).noSuchStep()",
        "g.V(2).noSuchStep()",
    };
    PlanCache::Counts before = g->plan_cache()->Snapshot();
    for (const std::string& script : scripts) (void)g->Execute(script);
    PlanCache::Counts after = g->plan_cache()->Snapshot();
    EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
              scripts.size());
  }
}

TEST_F(PlanCacheTest, ParseErrorsReadAsWritten) {
  ExecOptions raw;
  raw.use_plan_cache = false;
  for (const std::string& script :
       {std::string("g.V(1).noSuchStep()"), std::string("g.V(1, 2"),
        std::string("g.V(1).out(2)"), std::string("g.V(1).limit('x')"),
        std::string("g.V(1,)"), std::string("g.V(1 2)"),
        std::string("g.V('open"), std::string("g.V(-1) #")}) {
    // Twice: errors are never cached.
    for (int i = 0; i < 2; ++i) {
      auto concentrated = graph_->Execute(script);
      auto as_written = graph_->Execute(script, raw);
      ASSERT_FALSE(concentrated.ok()) << script;
      ASSERT_FALSE(as_written.ok()) << script;
      EXPECT_EQ(concentrated.status().ToString(),
                as_written.status().ToString());
    }
  }
  EXPECT_EQ(graph_->plan_cache()->size(), 0u);
}

TEST_F(PlanCacheTest, CachedShapeKeepsTheCallersTextInTraces) {
  ASSERT_TRUE(graph_->Execute("g.V(1).out('e').values('score')").ok());
  QueryTrace trace;
  ExecOptions options;
  options.trace = &trace;
  auto out = graph_->Execute("g.V(2).out('e').values('score')", options);
  ASSERT_EQ(Ids(out), Ints({30}));
  EXPECT_EQ(trace.script(), "g.V(2).out('e').values('score')");
  EXPECT_EQ(trace.plan_source(), "cached");
  std::vector<StrategyRewrite> rewrites = trace.Rewrites();
  ASSERT_FALSE(rewrites.empty());
  EXPECT_NE(rewrites[0].before.find("ids=[2]"), std::string::npos)
      << rewrites[0].before;
  for (const StrategyRewrite& r : rewrites) {
    EXPECT_EQ(r.before.find("__c"), std::string::npos) << r.before;
    EXPECT_EQ(r.after.find("__c"), std::string::npos) << r.after;
  }
  for (const StepTraceSpan& span : trace.Spans()) {
    EXPECT_EQ(span.detail.find("__c"), std::string::npos) << span.detail;
  }

  // profile() on a cached shape: the same.
  ASSERT_TRUE(
      graph_->Execute("g.V(3).out('e').values('score').profile()").ok());
  auto warm = graph_->Execute("g.V(2).out('e').values('score').profile()");
  ASSERT_TRUE(warm.ok());
  std::string json = (*warm)[0].value.ToString();
  EXPECT_NE(json.find("\"plan\": \"cached\""), std::string::npos) << json;
  EXPECT_NE(json.find("g.V(2).out('e').values('score').profile()"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("__c"), std::string::npos) << json;
}

// ----------------------------------------------------------------------
// DDL staleness
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, DdlInvalidatesCachedPlans) {
  const std::string script = "g.V(1).out('e').id()";
  ASSERT_TRUE(graph_->Execute(script).ok());
  BumpDdl();
  uint64_t parses_before = ParseCalls();
  auto after = graph_->Execute(script);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);
  EXPECT_EQ(ParseCalls(), parses_before + 1)
      << "a plan compiled before DDL must not be served afterwards";
  PlanCache::Counts counts = graph_->plan_cache()->Snapshot();
  EXPECT_EQ(counts.invalidations, 1u);
  EXPECT_EQ(counts.hits, 0u);
}

TEST_F(PlanCacheTest, StalePreparedQueryRecompilesTransparently) {
  Result<PreparedQuery> prepared = graph_->Prepare("g.V(vid).out('e').id()");
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->IsStale());
  BumpDdl();
  EXPECT_TRUE(prepared->IsStale());
  // Execution still works: the handle recompiles through the cache.
  auto out = prepared->Execute({{"vid", {Value(int64_t{1})}}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 2u);
}

// ----------------------------------------------------------------------
// Binding validation
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, MissingBindingIsNotFound) {
  Result<PreparedQuery> prepared = graph_->Prepare("g.V(vid).id()");
  ASSERT_TRUE(prepared.ok());
  auto out = prepared->Execute();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
  EXPECT_NE(out.status().ToString().find("vid"), std::string::npos);
}

TEST_F(PlanCacheTest, IdBindingTypeMismatchIsInvalidArgument) {
  Result<PreparedQuery> prepared = graph_->Prepare("g.V(vid).id()");
  ASSERT_TRUE(prepared.ok());
  auto out = prepared->Execute({{"vid", {Value(1.5)}}});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().ToString().find("DOUBLE"), std::string::npos);
}

TEST_F(PlanCacheTest, ScalarPredicateBindingRejectsValueLists) {
  Result<PreparedQuery> prepared =
      graph_->Prepare("g.V().has('score', gt(threshold))");
  ASSERT_TRUE(prepared.ok());
  auto out = prepared->Execute(
      {{"threshold", {Value(int64_t{1}), Value(int64_t{2})}}});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------------
// Plan provenance in Explain / profile()
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, ExplainReportsWhetherThePlanWasCached) {
  auto cold = graph_->Explain("g.V(1).out('e')");
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold->text.find("plan: compiled"), std::string::npos)
      << cold->text;
  auto warm = graph_->Explain("g.V(1).out('e')");
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->text.find("plan: cached"), std::string::npos)
      << warm->text;
  // The machine-readable rendering carries the same field, and the cached
  // plan still explains the rewrites recorded at compile time.
  const Json* plan = warm->json.Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->as_string(), "cached");
  const Json* strategies = warm->json.Find("strategies");
  ASSERT_NE(strategies, nullptr);
  EXPECT_FALSE(strategies->items().empty());
}

TEST_F(PlanCacheTest, ProfileReportsWhetherThePlanWasCached) {
  auto cold = graph_->Execute("g.V(1).out('e').profile()");
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->size(), 1u);
  EXPECT_NE((*cold)[0].value.ToString().find("\"plan\": \"compiled\""),
            std::string::npos);
  auto warm = graph_->Execute("g.V(1).out('e').profile()");
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->size(), 1u);
  EXPECT_NE((*warm)[0].value.ToString().find("\"plan\": \"cached\""),
            std::string::npos);
}

// ----------------------------------------------------------------------
// AutoGraph routes through the unified path
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, AutoGraphProfileProducesATrace) {
  Result<AutoGraph> auto_graph = AutoGraph::Open(&db_);
  ASSERT_TRUE(auto_graph.ok()) << auto_graph.status().ToString();
  auto out = auto_graph->Execute("g.V(1).profile()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  std::string trace_json = (*out)[0].value.ToString();
  EXPECT_NE(trace_json.find("\"steps\""), std::string::npos)
      << "profile() through AutoGraph must produce a trace";
  EXPECT_NE(trace_json.find("\"plan\""), std::string::npos);
}

TEST_F(PlanCacheTest, AutoGraphAcceptsBindings) {
  Result<AutoGraph> auto_graph = AutoGraph::Open(&db_);
  ASSERT_TRUE(auto_graph.ok());
  // AutoOverlay derives prefixed ids: '<Table>::<pk>'.
  ExecOptions options;
  options.bindings = {{"vid", {Value("N::1")}}};
  auto out = auto_graph->Execute("g.V(vid).count()", options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value, Value(int64_t{1}));
}

// ----------------------------------------------------------------------
// ExecOptions covers everything the removed wrappers did
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, ExecOptionsCoverTheRemovedWrapperPaths) {
  // Session environment (the old Run(script, env)).
  gremlin::Environment env;
  ExecOptions session_options;
  session_options.session_env = &env;
  auto assigned =
      graph_->Execute("ids = g.V(1).out('e').id()", session_options);
  ASSERT_TRUE(assigned.ok());
  ASSERT_EQ(env.count("ids"), 1u);
  EXPECT_EQ(env["ids"].size(), 2u);

  // Caller-supplied trace (the old ExecuteTraced).
  QueryTrace trace;
  ExecOptions traced_options;
  traced_options.trace = &trace;
  auto traced = graph_->Execute("g.V(1)", traced_options);
  ASSERT_TRUE(traced.ok());
  EXPECT_FALSE(trace.Spans().empty());
  EXPECT_FALSE(trace.plan_source().empty());

  // Compile-once execution (the old Compile + ExecuteScript).
  Result<PreparedQuery> prepared = graph_->Prepare("g.V(1).id()");
  ASSERT_TRUE(prepared.ok());
  auto direct = prepared->Execute();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->size(), 1u);
}

// ----------------------------------------------------------------------
// Concurrency (TSan target)
// ----------------------------------------------------------------------

TEST_F(PlanCacheTest, ConcurrentPrepareExecuteAndDdlStress) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  // Query threads mix text executions (shared cache entries), prepared
  // executions, and per-thread scripts.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      Result<PreparedQuery> prepared =
          graph_->Prepare("g.V(vid).out('e').count()");
      if (!prepared.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        int64_t vid = 1 + (t + i) % 3;
        auto via_text = graph_->Execute("g.V(" + std::to_string(vid) +
                                        ").id()");
        if (!via_text.ok()) failures.fetch_add(1);
        auto via_prepared = prepared->Execute({{"vid", {Value(vid)}}});
        if (!via_prepared.ok()) failures.fetch_add(1);
        auto shared = graph_->Execute("g.V().count()");
        if (!shared.ok() || (*shared)[0].value != Value(int64_t{3})) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // DDL thread: keeps invalidating every cached plan.
  threads.emplace_back([this] {
    for (int i = 0; i < kIterations / 2; ++i) {
      std::string name = "Stress" + std::to_string(i);
      (void)db_.Execute("CREATE TABLE " + name +
                        " (id BIGINT PRIMARY KEY)");
      (void)db_.Execute("DROP TABLE " + name);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ----------------------------------------------------------------------
// PlanCache unit behavior
// ----------------------------------------------------------------------

TEST(PlanCacheUnitTest, EvictsLeastRecentlyUsedWithinShard) {
  PlanCache cache(/*capacity=*/2, /*shards=*/1);
  auto plan = [](const std::string& text) {
    auto p = std::make_shared<CompiledPlan>();
    p->script_text = text;
    return p;
  };
  cache.Insert("a", plan("a"));
  cache.Insert("b", plan("b"));
  ASSERT_NE(cache.Lookup("a", 0), nullptr);  // a is now most recent
  cache.Insert("c", plan("c"));              // evicts b
  EXPECT_NE(cache.Lookup("a", 0), nullptr);
  EXPECT_EQ(cache.Lookup("b", 0), nullptr);
  EXPECT_NE(cache.Lookup("c", 0), nullptr);
  EXPECT_EQ(cache.Snapshot().evictions, 1u);
}

TEST(PlanCacheUnitTest, StaleEntryIsInvalidatedOnLookup) {
  PlanCache cache(8, 1);
  auto p = std::make_shared<CompiledPlan>();
  p->ddl_version = 1;
  cache.Insert("k", p);
  EXPECT_NE(cache.Lookup("k", 1), nullptr);
  EXPECT_EQ(cache.Lookup("k", 2), nullptr);  // stale: erased + counted
  EXPECT_EQ(cache.size(), 0u);
  PlanCache::Counts counts = cache.Snapshot();
  EXPECT_EQ(counts.invalidations, 1u);
  EXPECT_EQ(counts.hits, 1u);
  EXPECT_EQ(counts.misses, 1u);
}

TEST(PlanCacheUnitTest, CollectBindSlotsSkipsAssignedVariables) {
  Result<gremlin::Script> script = gremlin::ParseGremlin(
      "xs = g.V(seed).out('e').id(); g.V(xs).has('score', gt(cut))");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  std::vector<CompiledPlan::BindSlot> slots = CollectBindSlots(*script);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].name, "seed");
  EXPECT_EQ(slots[0].use, CompiledPlan::BindSlot::Use::kId);
  EXPECT_EQ(slots[1].name, "cut");
  EXPECT_EQ(slots[1].use, CompiledPlan::BindSlot::Use::kPredicate);
  EXPECT_EQ(slots[1].op, gremlin::PropPredicate::Op::kGt);
}

}  // namespace
}  // namespace db2graph::core
