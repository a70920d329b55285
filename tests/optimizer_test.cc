// Copyright (c) 2026 The db2graph-repro Authors.
//
// The cost-based multi-hop join collapse (core/optimizer.h): the
// equivalence matrix proving collapsed plans are byte-identical with
// step-at-a-time execution across hop counts, predicate placements, block
// sizes, and degrees of parallelism; the legality/misestimate bail-outs;
// the statistics-sensitive plan-cache expiry; and the observability
// surfaces (sysmon.optimizer, Explain / EXPLAIN ANALYZE, query-log
// collapsed_hops).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_config.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "core/db2graph.h"
#include "core/optimizer.h"
#include "gremlin/interpreter.h"
#include "gremlin/parser.h"
#include "sql/database.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

constexpr int kPersons = 20;

// Renders every byte of a result that execution order or content could
// perturb: traverser kind, element id/label/properties (in materialized
// order), and the full path-id history.
std::string RenderAll(const std::vector<Traverser>& out) {
  std::string s;
  for (const Traverser& t : out) {
    switch (t.kind) {
      case Traverser::Kind::kVertex:
        s += "V{" + t.vertex->id.ToString() + "," + t.vertex->label;
        for (const auto& [k, v] : t.vertex->properties) {
          s += "," + k + "=" + v.ToString();
        }
        s += "}";
        break;
      case Traverser::Kind::kEdge:
        s += "E{" + t.edge->id.ToString() + "}";
        break;
      case Traverser::Kind::kValue:
        s += "v{" + t.value.ToString() + "}";
        break;
      case Traverser::Kind::kList:
        s += "l{";
        for (const Value& v : t.list) s += v.ToString() + ",";
        s += "}";
        break;
    }
    s += " path=[";
    for (const Value& v : t.path) s += v.ToString() + ",";
    s += "];\n";
  }
  return s;
}

uint64_t RegistryCount(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->load();
}

class MultiHopCollapseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE person (id BIGINT PRIMARY KEY, age BIGINT, name VARCHAR);
      CREATE TABLE knows (src BIGINT, dst BIGINT, w BIGINT);
      CREATE INDEX idx_knows_src ON knows (src);
      CREATE INDEX idx_knows_dst ON knows (dst);
      CREATE TABLE follows (src BIGINT, dst BIGINT);
      CREATE INDEX idx_follows_src ON follows (src);
      CREATE INDEX idx_follows_dst ON follows (dst);
    )sql")
                    .ok());
    for (int i = 1; i <= kPersons; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO person VALUES (" +
                              std::to_string(i) + ", " +
                              std::to_string(20 + i % 7) + ", 'p" +
                              std::to_string(i) + "')")
                      .ok());
      // A few out-edges per person, deterministic and overlapping enough
      // that multi-hop chains fan out and revisit vertices.
      for (int mul : {1, 3, 7}) {
        ASSERT_TRUE(db_.Execute("INSERT INTO knows VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string((i * mul) % kPersons + 1) +
                                ", " + std::to_string(i % 5) + ")")
                        .ok());
      }
      for (int mul : {2, 5}) {
        ASSERT_TRUE(db_.Execute("INSERT INTO follows VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string((i * mul) % kPersons + 1) +
                                ")")
                        .ok());
      }
    }
    // Two graphs over the same database: the control compiles everything
    // step-at-a-time; the subject runs the collapse pass. The subject
    // opens last so the shared sysmon.optimizer registration reads its
    // log.
    Db2Graph::Options off;
    off.optimizer.multi_hop_collapse = false;
    graph_off_ = OpenGraph(off);
    graph_on_ = OpenGraph(Db2Graph::Options());
  }

  std::unique_ptr<Db2Graph> OpenGraph(Db2Graph::Options options) {
    auto graph = Db2Graph::Open(&db_, R"json({
      "v_tables": [{"table_name": "person", "id": "id", "fix_label": true,
                    "label": "'person'", "properties": ["age", "name"]}],
      "e_tables": [{"table_name": "knows", "src_v_table": "person",
                    "src_v": "src", "dst_v_table": "person", "dst_v": "dst",
                    "implicit_edge_id": true, "fix_label": true,
                    "label": "'knows'", "properties": ["w"]},
                   {"table_name": "follows", "src_v_table": "person",
                    "src_v": "src", "dst_v_table": "person", "dst_v": "dst",
                    "implicit_edge_id": true, "fix_label": true,
                    "label": "'follows'"}]
    })json",
                                options);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    return graph.ok() ? std::move(*graph) : nullptr;
  }

  // Cached runs key text on its concentrated shape (id literals as bind
  // slots); use_cache=false parses the text as written on every call.
  std::string Run(Db2Graph* graph, const std::string& script,
                  size_t block_rows, int dop, bool use_cache = true) {
    ExecOptions options;
    options.config = ExecConfig().block_rows(block_rows).parallelism(dop);
    options.use_plan_cache = use_cache;
    Result<std::vector<Traverser>> out = graph->Execute(script, options);
    EXPECT_TRUE(out.ok()) << out.status().ToString() << " for " << script;
    return out.ok() ? RenderAll(*out) : "<error>";
  }

  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_off_;
  std::unique_ptr<Db2Graph> graph_on_;
};

// ----------------------------------------------------------------------
// Equivalence matrix: hops x predicate placement x block size x dop
// ----------------------------------------------------------------------

TEST_F(MultiHopCollapseTest, EquivalenceMatrix) {
  const std::vector<std::string> scripts = {
      // 2 / 3 / 4 hops, server-side (pushed) predicates only.
      "g.V().out('knows').out('knows')",
      "g.V().has('age', gte(22)).out('knows').has('age', lte(25))"
      ".out('knows')",
      "g.V(1, 2, 3, 4).out('knows').out('follows').out('knows')",
      "g.V().out('knows').out('knows').out('follows').out('knows').id()",
      // inbound direction; the second script runs the first one's plan
      // with another id.
      "g.V(5).in('knows').in('knows')",
      "g.V(6).in('knows').in('knows')",
      // outE().inV() pairs: edge ids on the path, edge predicates pushed.
      "g.V(1, 7, 13).outE('knows').inV().outE('knows').inV().path()",
      "g.V().outE('knows').has('w', gte(2)).inV().out('follows')",
      // Unlabeled first hop fans out over both edge tables.
      "g.V(3).out().out('knows')",
      // Client-side predicate (without() stays client-side) forces the
      // bail path; mixed = pushed on one hop, client on another.
      "g.V(1, 2).out('knows').has('age', without(21, 23)).out('knows')",
      "g.V().has('age', gte(22)).out('knows').has('age', gte(21))"
      ".out('follows').has('name', without('p3')).out('knows')",
      // Projection on the final hop only.
      "g.V(2, 4).out('knows').out('knows').values('name')",
      // Id-sourced chains, whose first hop is the mutated g.V(ids).out()
      // pair: an outE().has().inV() first hop, has() on hop-1 vertices,
      // repeated and missing start ids, and an unlabeled first hop over
      // both edge tables from several ids (table-major across sources).
      "g.V(1, 7, 13).outE('knows').has('w', gte(2)).inV().out('follows')",
      "g.V(2, 3).out('knows').has('age', lte(24)).out('knows')",
      "g.V(4, 4, 999, 2).out('knows').out('knows').out('follows')",
      "g.V(3, 1, 2).out().out('knows')",
      "g.V(8, 9).in('knows').out('follows').in('knows').values('name')",
      "g.V(6).inE('follows').outV().outE('knows').inV().id()",
      // A mid-traversal V(ids) and one inside a union() branch: sources
      // that ignore their input traversers.
      "g.V(1).out('knows').V(2, 3).out('knows').out('follows')",
      "g.V(1, 2).union(V(3).out('knows').out('knows'), out('follows'))",
  };
  for (size_t block_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (int dop : {1, 4}) {
      for (const std::string& script : scripts) {
        std::string collapsed = Run(graph_on_.get(), script, block_rows, dop);
        std::string stepwise = Run(graph_off_.get(), script, block_rows, dop);
        EXPECT_EQ(collapsed, stepwise)
            << script << " (block_rows=" << block_rows << " dop=" << dop
            << ")";
        EXPECT_EQ(collapsed, Run(graph_on_.get(), script, block_rows, dop,
                                 /*use_cache=*/false))
            << script << " concentrated vs uncached (block_rows="
            << block_rows << " dop=" << dop << ")";
      }
    }
  }
  // The matrix only proves something if the subject actually collapsed.
  OptimizerLog::Counters c = graph_on_->optimizer_log()->counters();
  EXPECT_GT(c.chosen, 0u);
  EXPECT_GT(c.bailed, 0u);  // the client-predicate scripts
  EXPECT_GT(c.executions, 0u);
  EXPECT_EQ(graph_off_->optimizer_log()->counters().attempted, 0u);
  // ...and if the concentrated runs served a script from a plan compiled
  // for other literals: fewer entries than scripts.
  EXPECT_LT(graph_on_->plan_cache()->size(), scripts.size());
}

// ----------------------------------------------------------------------
// Count folding: chain + count() as one GROUP BY join
// ----------------------------------------------------------------------

// Decisions whose chain carries a folded count().
std::vector<OptimizerLog::Decision> CountDecisions(const OptimizerLog& log) {
  std::vector<OptimizerLog::Decision> out;
  for (const OptimizerLog::Decision& d : log.Snapshot()) {
    if (d.chosen && d.chain.size() > 8 &&
        d.chain.compare(d.chain.size() - 8, 8, ".count()") == 0) {
      out.push_back(d);
    }
  }
  return out;
}

TEST_F(MultiHopCollapseTest, CountFoldEquivalence) {
  // A person with no out-edges at all.
  ASSERT_TRUE(db_.Execute("INSERT INTO person VALUES (99, 30, 'p99')").ok());
  const std::vector<std::string> scripts = {
      "g.V(1).out('knows').out('knows').out('knows').count()",
      // Duplicate start ids count their walks once per traverser.
      "g.V(1, 1, 2).out('knows').out('knows').count()",
      // The first hop reaches 2 and 4 from both starts, so the folded
      // step's input repeats them (checked below).
      "g.V(1, 3).out('knows').out('knows').out('knows').count()",
      // A start with no out-edges, and a chain no source survives: both
      // yield 0, not an empty result.
      "g.V(99).out('knows').out('knows').out('knows').count()",
      "g.V(1, 2).out('knows').has('age', gt(100)).out('knows').count()",
      "g.V().has('age', gt(100)).out('knows').out('knows').count()",
      // in() hops and outE().inV() hops.
      "g.V(5, 6).in('knows').in('follows').count()",
      "g.V(1, 7).outE('knows').inV().outE('knows').inV().count()",
      "g.V(1).outE('knows').has('w', gte(2)).inV().out('follows').count()",
      // A pushed has() on the final hop.
      "g.V(1, 2, 3).out('knows').out('knows').has('age', lte(23)).count()",
      // Id-sourced first hops: missing and repeated ids, edge predicates,
      // has() on hop-1 vertices, an unlabeled first hop.
      "g.V(1, 99, 1, 1000).out('knows').out('knows').out('follows').count()",
      "g.V(1, 7).outE('knows').has('w', gte(2)).inV().out('knows').count()",
      "g.V(2, 5).out('follows').has('age', gte(23)).out('knows').count()",
      "g.V(3, 4).out().out('knows').out('knows').count()",
      // limit() / dedup() between the chain and count(): no fold.
      "g.V(1, 2).out('knows').out('knows').limit(5).count()",
      "g.V(1, 2).out('knows').out('knows').dedup().count()",
      // A count inside where(): count 0 filters the traverser out.
      "g.V().where(out('knows').out('knows').out('knows').count())",
      "g.V().where(out('knows').out('follows').out('knows')"
      ".has('age', gt(25)).count()).id()",
      // The folded count feeds a value filter.
      "g.V(1, 2, 3).out('knows').out('knows').count().is(gt(10))",
      "g.V(1, 2, 3).out('knows').out('knows').count().is(gt(1000))",
  };
  for (size_t block_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (int dop : {1, 4}) {
      for (const std::string& script : scripts) {
        std::string folded = Run(graph_on_.get(), script, block_rows, dop);
        EXPECT_EQ(folded, Run(graph_off_.get(), script, block_rows, dop))
            << script << " (block_rows=" << block_rows << " dop=" << dop
            << ")";
        EXPECT_EQ(folded, Run(graph_on_.get(), script, block_rows, dop,
                              /*use_cache=*/false))
            << script << " concentrated vs uncached (block_rows="
            << block_rows << " dop=" << dop << ")";
      }
    }
  }
  EXPECT_NE(Run(graph_on_.get(), "g.V(1, 3).out('knows').count()", 256, 1),
            Run(graph_on_.get(), "g.V(1, 3).out('knows').dedup().count()",
                256, 1));
  for (size_t empty : {3, 4, 5}) {
    EXPECT_EQ(Run(graph_on_.get(), scripts[empty], 256, 1),
              "v{0} path=[];\n")
        << scripts[empty];
  }

  std::vector<OptimizerLog::Decision> folded =
      CountDecisions(*graph_on_->optimizer_log());
  ASSERT_FALSE(folded.empty());
  uint64_t executions = 0;
  for (const OptimizerLog::Decision& d : folded) {
    executions += d.executions;
    EXPECT_EQ(d.fallbacks, 0u) << d.chain;
  }
  EXPECT_GT(executions, 0u);
  EXPECT_EQ(graph_on_->optimizer_log()->counters().fallbacks, 0u);
}

TEST_F(MultiHopCollapseTest, CountFoldCompilesIntoTheStep) {
  Result<gremlin::Script> script = graph_on_->Compile(
      "g.V(1).out('knows').out('knows').out('knows').count()");
  ASSERT_TRUE(script.ok());
  const auto& steps = script->statements[0].traversal.steps;
  ASSERT_EQ(steps.back().kind, gremlin::StepKind::kMultiHop)
      << script->statements[0].traversal.ToString();
  ASSERT_NE(steps.back().multi_hop, nullptr);
  EXPECT_EQ(steps.back().multi_hop->agg, gremlin::AggOp::kCount);
  // The fallback body ends with the count() it replaced.
  ASSERT_FALSE(steps.back().body.empty());
  EXPECT_EQ(steps.back().body.back().kind, gremlin::StepKind::kAggregate);
  EXPECT_NE(steps.back().ToString().find("agg=count"), std::string::npos);

  // A count() inside where() folds too.
  script = graph_on_->Compile(
      "g.V().where(out('knows').out('knows').out('knows').count())");
  ASSERT_TRUE(script.ok());
  const auto& where = script->statements[0].traversal.steps.back();
  ASSERT_EQ(where.kind, gremlin::StepKind::kWhere);
  ASSERT_EQ(where.body.back().kind, gremlin::StepKind::kMultiHop);
  EXPECT_EQ(where.body.back().multi_hop->agg, gremlin::AggOp::kCount);

  // limit() between the chain and count(): the chain collapses, the
  // count stays a step of its own.
  script = graph_on_->Compile(
      "g.V(1).out('knows').out('knows').limit(5).count()");
  ASSERT_TRUE(script.ok());
  const auto& limited = script->statements[0].traversal.steps;
  EXPECT_EQ(limited.back().kind, gremlin::StepKind::kAggregate);
  for (const auto& step : limited) {
    if (step.multi_hop) {
      EXPECT_EQ(step.multi_hop->agg, gremlin::AggOp::kNone);
    }
  }

  // Aggregate pushdown off: the chain still collapses, without the count.
  Db2Graph::Options no_agg;
  no_agg.strategies.aggregate_pushdown = false;
  std::unique_ptr<Db2Graph> graph = OpenGraph(no_agg);
  script = graph->Compile(
      "g.V(1).out('knows').out('knows').out('knows').count()");
  ASSERT_TRUE(script.ok());
  const auto& plain = script->statements[0].traversal.steps;
  EXPECT_EQ(plain.back().kind, gremlin::StepKind::kAggregate);
  bool collapsed = false;
  for (const auto& step : plain) {
    if (!step.multi_hop) continue;
    collapsed = true;
    EXPECT_EQ(step.multi_hop->agg, gremlin::AggOp::kNone);
  }
  EXPECT_TRUE(collapsed);
}

TEST_F(MultiHopCollapseTest, CountFoldFallbackBodyCounts) {
  // A plan compiled with the collapse, run on a provider without endpoint
  // pinning: the provider declines at runtime and the preserved body —
  // the hops, and the count() when one was folded — runs through segment
  // carving nested inside the outer plan's blocks. It must produce what
  // the collapse-off graph produces at the same block size.
  Db2Graph::Options unpinned;
  unpinned.runtime.endpoint_table_pruning = false;
  std::unique_ptr<Db2Graph> declining = OpenGraph(unpinned);
  const std::vector<std::string> scripts = {
      "g.V(1, 1, 2).out('knows').out('knows').out('knows').count()",
      "g.V(3).out('knows').outE('knows').inV().out('follows').count()",
      "g.V().has('age', gt(100)).out('knows').out('knows').count()",
      // Non-counted chains: the multi-hop step streams, so the body runs
      // once per block of sources.
      "g.V(1, 1, 2).out('knows').out('knows').out('knows')",
      "g.V().has('age', gte(24)).out('knows').out('follows').id()",
      // Chains ending in path(): the body must extend each traverser's
      // path exactly as the collapsed walk would.
      "g.V(1, 7, 13).outE('knows').inV().outE('knows').inV().path()",
      "g.V(3).out('knows').out('follows').path()",
  };
  for (const std::string& text : scripts) {
    Result<gremlin::Script> script = graph_on_->Compile(text);
    ASSERT_TRUE(script.ok());
    const bool counted = text.find(".count()") != std::string::npos;
    for (size_t block : {size_t{1}, size_t{7}, size_t{1024}}) {
      uint64_t fallbacks = graph_on_->optimizer_log()->counters().fallbacks;
      gremlin::Interpreter::Options options;
      options.block_size = block;
      gremlin::Interpreter interpreter(declining->provider(), options);
      Result<std::vector<Traverser>> out = interpreter.RunScript(*script);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(RenderAll(*out), Run(graph_off_.get(), text, block, 1))
          << text << " at block size " << block;
      if (text.find("gt(100)") != std::string::npos) continue;
      // A folded count() is a barrier: one provider call, one fallback.
      // A streamed chain falls back once per block of sources.
      uint64_t now = graph_on_->optimizer_log()->counters().fallbacks;
      if (counted) {
        EXPECT_EQ(now, fallbacks + 1) << text << " at block size " << block;
      } else {
        EXPECT_GT(now, fallbacks) << text << " at block size " << block;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Id-sourced chains: g.V(ids).out()... with the mutated first hop
// ----------------------------------------------------------------------

TEST_F(MultiHopCollapseTest, IdSourcedChainCompilesToOneSourceStep) {
  Result<gremlin::Script> script = graph_on_->Compile(
      "g.V(1).out('knows').out('knows').out('follows').count()");
  ASSERT_TRUE(script.ok());
  const auto& steps = script->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 1u) << script->statements[0].traversal.ToString();
  const gremlin::Step& step = steps[0];
  ASSERT_EQ(step.kind, gremlin::StepKind::kMultiHop);
  EXPECT_TRUE(step.IdSourced());
  ASSERT_EQ(step.src_id_args.size(), 1u);
  EXPECT_TRUE(step.dst_id_args.empty());
  ASSERT_NE(step.multi_hop, nullptr);
  EXPECT_EQ(step.multi_hop->hops.size(), 3u);
  EXPECT_EQ(step.multi_hop->agg, gremlin::AggOp::kCount);
  EXPECT_EQ(step.multi_hop->join_order,
            "knows>person>knows>person>follows>person");
  // The first hop's edges start the path, as the edge fetch's do.
  EXPECT_TRUE(step.multi_hop->hops[0].emit_edge_id);
  // The fallback body is the mutated plan: the edge fetch by source id,
  // its inV(), the later hops and the count().
  ASSERT_EQ(step.body.size(), 5u);
  EXPECT_EQ(step.body[0].kind, gremlin::StepKind::kGraph);
  EXPECT_TRUE(step.body[0].graph_emits_edges);
  EXPECT_EQ(step.body[1].kind, gremlin::StepKind::kEdgeVertex);
  EXPECT_EQ(step.body[4].kind, gremlin::StepKind::kAggregate);

  // in() starts from destination ids.
  script = graph_on_->Compile("g.V(5).in('knows').in('knows')");
  ASSERT_TRUE(script.ok());
  const auto& inward = script->statements[0].traversal.steps;
  ASSERT_EQ(inward.size(), 1u);
  EXPECT_TRUE(inward[0].IdSourced());
  EXPECT_EQ(inward[0].dst_id_args.size(), 1u);
  EXPECT_TRUE(inward[0].src_id_args.empty());

  // path() keeps the mutation away, so the chain starts from the fetched
  // start vertices instead.
  script = graph_on_->Compile("g.V(5).out('knows').out('knows').path()");
  ASSERT_TRUE(script.ok());
  const auto& pathed = script->statements[0].traversal.steps;
  ASSERT_EQ(pathed.size(), 3u);
  EXPECT_EQ(pathed[1].kind, gremlin::StepKind::kMultiHop);
  EXPECT_FALSE(pathed[1].IdSourced());

  // A single hop after the pair stays step-at-a-time.
  script = graph_on_->Compile("g.V(5).out('knows').count()");
  ASSERT_TRUE(script.ok());
  for (const auto& s : script->statements[0].traversal.steps) {
    EXPECT_NE(s.kind, gremlin::StepKind::kMultiHop);
  }
}

TEST_F(MultiHopCollapseTest, IdSourcedChainsShareOnePlanAcrossIds) {
  // Texts differing only in the id share one cached plan: the start id
  // stays a slot of the collapsed step.
  const std::vector<std::string> texts = {
      "g.V(1).out('knows').out('knows').out('follows').count()",
      "g.V(2).out('knows').out('knows').out('follows').count()",
      "g.V(999).out('knows').out('knows').out('follows').count()",
  };
  PlanCache::Counts before = graph_on_->plan_cache()->Snapshot();
  for (const std::string& text : texts) {
    EXPECT_EQ(Run(graph_on_.get(), text, 256, 1),
              Run(graph_off_.get(), text, 256, 1))
        << text;
  }
  PlanCache::Counts after = graph_on_->plan_cache()->Snapshot();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + texts.size() - 1);
  EXPECT_EQ(graph_on_->plan_cache()->size(), 1u);
}

TEST_F(MultiHopCollapseTest, PreparedIdSourcedChainsBindTheStartIds) {
  // The prepared form binds the start ids per execution; every binding,
  // at every block size and degree of parallelism, matches the
  // step-at-a-time text with the ids inlined.
  const std::vector<std::string> shapes = {
      "g.V(vid).out('knows').out('follows').out('knows')",
      "g.V(vid).out('knows').out('follows').out('knows').count()",
      "g.V(vid).in('knows').outE('knows').inV().id()",
  };
  const std::vector<std::vector<int64_t>> bindings = {
      {1}, {7, 3}, {4, 4}, {999}, {12, 999, 5}};
  const uint64_t executions0 =
      graph_on_->optimizer_log()->counters().executions;
  for (const std::string& shape : shapes) {
    Result<PreparedQuery> prepared = graph_on_->Prepare(shape);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (const std::vector<int64_t>& ids : bindings) {
      std::string inlined;
      std::vector<Value> values;
      for (int64_t id : ids) {
        if (!inlined.empty()) inlined += ", ";
        inlined += std::to_string(id);
        values.push_back(Value(id));
      }
      std::string text = shape;
      text.replace(text.find("vid"), 3, inlined);
      for (size_t block_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
        for (int dop : {1, 4}) {
          ExecOptions options;
          options.config =
              ExecConfig().block_rows(block_rows).parallelism(dop);
          options.bindings = {{"vid", values}};
          Result<std::vector<Traverser>> out = prepared->Execute(options);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          EXPECT_EQ(RenderAll(*out),
                    Run(graph_off_.get(), text, block_rows, dop))
              << text << " (block_rows=" << block_rows << " dop=" << dop
              << ")";
        }
      }
    }
  }
  OptimizerLog::Counters c = graph_on_->optimizer_log()->counters();
  EXPECT_EQ(c.executions,
            executions0 + shapes.size() * bindings.size() * 6);
  EXPECT_EQ(c.fallbacks, 0u);
}

TEST_F(MultiHopCollapseTest, IdSourcedDeclineRunsTheBodyOnce) {
  // A provider without endpoint pinning declines the join; the step then
  // runs its body — the mutated edge fetch and the hops after it — once,
  // whatever the block size, and returns exactly what step-at-a-time
  // execution returns.
  Db2Graph::Options unpinned;
  unpinned.runtime.endpoint_table_pruning = false;
  std::unique_ptr<Db2Graph> declining = OpenGraph(unpinned);
  const std::vector<std::string> texts = {
      "g.V(1, 1, 3).out('knows').out('knows').out('follows')",
      "g.V(1, 1, 3).out('knows').out('knows').out('follows').count()",
      "g.V(4).in('knows').in('knows').id()",
      "g.V(999).out('knows').out('knows').count()",
  };
  for (const std::string& text : texts) {
    Result<gremlin::Script> script = graph_on_->Compile(text);
    ASSERT_TRUE(script.ok());
    ASSERT_TRUE(script->statements[0].traversal.steps[0].IdSourced())
        << script->statements[0].traversal.ToString();
    for (size_t block : {size_t{1}, size_t{7}, size_t{1024}}) {
      const uint64_t fallbacks =
          graph_on_->optimizer_log()->counters().fallbacks;
      gremlin::Interpreter::Options options;
      options.block_size = block;
      gremlin::Interpreter interpreter(declining->provider(), options);
      Result<std::vector<Traverser>> out = interpreter.RunScript(*script);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(RenderAll(*out), Run(graph_off_.get(), text, block, 1))
          << text << " at block size " << block;
      EXPECT_EQ(graph_on_->optimizer_log()->counters().fallbacks,
                fallbacks + 1)
          << text << " at block size " << block;
    }
  }
}

// ----------------------------------------------------------------------
// Cost-model bail-outs
// ----------------------------------------------------------------------

TEST_F(MultiHopCollapseTest, MisestimateBailsToStepAtATime) {
  // A fan-out cap below any real per-hop estimate: every chain is legal
  // but too expensive, so nothing collapses — and results are unchanged.
  Db2Graph::Options capped;
  capped.optimizer.max_fanout = 0.001;
  std::unique_ptr<Db2Graph> graph = OpenGraph(capped);
  // The predicate on g.V() keeps GraphStepVertexStepMutation away from
  // the first hop, so the full two-hop chain is a collapse candidate.
  const std::string script =
      "g.V().has('age', gte(20)).out('knows').out('knows')";
  EXPECT_EQ(Run(graph.get(), script, 256, 1),
            Run(graph_off_.get(), script, 256, 1));
  OptimizerLog::Counters c = graph->optimizer_log()->counters();
  EXPECT_GT(c.attempted, 0u);
  EXPECT_EQ(c.chosen, 0u);
  bool saw_fanout_bail = false;
  for (const OptimizerLog::Decision& d : graph->optimizer_log()->Snapshot()) {
    EXPECT_FALSE(d.chosen);
    if (d.bail_reason.find("fan-out estimate") != std::string::npos) {
      saw_fanout_bail = true;
    }
  }
  EXPECT_TRUE(saw_fanout_bail);

  Db2Graph::Options rows_capped;
  rows_capped.optimizer.max_est_rows = 0.5;
  graph = OpenGraph(rows_capped);
  EXPECT_EQ(Run(graph.get(), script, 256, 1),
            Run(graph_off_.get(), script, 256, 1));
  EXPECT_EQ(graph->optimizer_log()->counters().chosen, 0u);
}

TEST_F(MultiHopCollapseTest, UnindexedEndpointBailsWithReason) {
  // An edge table with no endpoint indexes breaks probe parity, so the
  // optimizer must keep the chain step-at-a-time.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE likes (src BIGINT, dst BIGINT);
      INSERT INTO likes VALUES (1, 2), (2, 3);
    )sql")
                  .ok());
  auto graph = Db2Graph::Open(&db_, R"json({
      "v_tables": [{"table_name": "person", "id": "id", "fix_label": true,
                    "label": "'person'", "properties": ["age"]}],
      "e_tables": [{"table_name": "likes", "src_v_table": "person",
                    "src_v": "src", "dst_v_table": "person", "dst_v": "dst",
                    "implicit_edge_id": true, "fix_label": true,
                    "label": "'likes'"}]
    })json");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto out = (*graph)->Execute(
      "g.V().has('age', gte(0)).out('likes').out('likes')");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].vertex->id, Value(int64_t{3}));
  OptimizerLog::Counters c = (*graph)->optimizer_log()->counters();
  EXPECT_GT(c.attempted, 0u);
  EXPECT_EQ(c.chosen, 0u);
}

// ----------------------------------------------------------------------
// Statistics-sensitive plan-cache expiry
// ----------------------------------------------------------------------

TEST_F(MultiHopCollapseTest, StaleStatsRecompile) {
  Db2Graph::Options options;
  options.optimizer.stats_drift_limit = 8;
  std::unique_ptr<Db2Graph> graph = OpenGraph(options);
  const std::string script =
      "g.V().has('age', gte(21)).out('knows').out('knows')";
  ASSERT_TRUE(graph->Execute(script).ok());

  // Within the drift limit the cached plan keeps serving: no reparse, no
  // stale-stats recompile.
  uint64_t stale0 = RegistryCount(PlanCache::kStaleStatsRecompilesCounter);
  uint64_t parses0 = RegistryCount(gremlin::kParseCallsCounter);
  ASSERT_TRUE(graph->Execute(script).ok());
  EXPECT_EQ(RegistryCount(gremlin::kParseCallsCounter), parses0);
  EXPECT_EQ(RegistryCount(PlanCache::kStaleStatsRecompilesCounter), stale0);

  // Drift the statistics epoch past the limit: the next execution must
  // throw the cached plan away and recompile (a counted stale-stats
  // recompile — the script parses again).
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO knows VALUES (1, " +
                            std::to_string(2 + i % 5) + ", 0)")
                    .ok());
  }
  uint64_t attempts = graph->optimizer_log()->counters().attempted;
  ASSERT_TRUE(graph->Execute(script).ok());
  EXPECT_EQ(RegistryCount(gremlin::kParseCallsCounter), parses0 + 1);
  EXPECT_EQ(RegistryCount(PlanCache::kStaleStatsRecompilesCounter),
            stale0 + 1);
  EXPECT_EQ(graph->optimizer_log()->counters().attempted, attempts + 1);

  // The recompiled plan is cached again under the fresh epoch.
  uint64_t parses1 = RegistryCount(gremlin::kParseCallsCounter);
  ASSERT_TRUE(graph->Execute(script).ok());
  EXPECT_EQ(RegistryCount(gremlin::kParseCallsCounter), parses1);
  EXPECT_EQ(RegistryCount(PlanCache::kStaleStatsRecompilesCounter),
            stale0 + 1);
}

TEST_F(MultiHopCollapseTest, StepAtATimePlansIgnoreStatsDrift) {
  // A plan the optimizer never examined (single hop) is not
  // statistics-sensitive and survives any amount of drift.
  Db2Graph::Options options;
  options.optimizer.stats_drift_limit = 2;
  std::unique_ptr<Db2Graph> graph = OpenGraph(options);
  const std::string script = "g.V(1).id()";
  ASSERT_TRUE(graph->Execute(script).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        db_.Execute("INSERT INTO follows VALUES (1, " + std::to_string(i + 1) +
                    ")")
            .ok());
  }
  uint64_t before = RegistryCount(PlanCache::kStaleStatsRecompilesCounter);
  PlanCache::Counts c0 = graph->plan_cache()->Snapshot();
  ASSERT_TRUE(graph->Execute(script).ok());
  EXPECT_EQ(graph->plan_cache()->Snapshot().hits, c0.hits + 1);
  EXPECT_EQ(RegistryCount(PlanCache::kStaleStatsRecompilesCounter), before);
}

// ----------------------------------------------------------------------
// Observability: sysmon.optimizer, Explain, profile(), query log
// ----------------------------------------------------------------------

TEST_F(MultiHopCollapseTest, SysmonOptimizerTable) {
  ASSERT_TRUE(
      graph_on_
          ->Execute("g.V().has('age', gte(20)).out('knows').out('knows')")
          .ok());
  Result<sql::ResultSet> rs = db_.Execute(
      "SELECT chain, chosen, bail_reason, hops, join_order, est_rows, "
      "actual_rows, executions FROM sysmon.optimizer");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_FALSE(rs->rows.empty());
  bool saw_chosen_execution = false;
  for (const Row& row : rs->rows) {
    if (!row[1].as_bool()) continue;
    EXPECT_EQ(row[2].as_string(), "");  // chosen rows carry no bail reason
    EXPECT_NE(row[4].as_string().find("knows"), std::string::npos)
        << row[4].as_string();
    if (row[7].as_int() > 0 && row[6].as_int() > 0) {
      saw_chosen_execution = true;
    }
  }
  EXPECT_TRUE(saw_chosen_execution)
      << "no executed collapse decision reported est vs actual rows";
}

TEST_F(MultiHopCollapseTest, ExplainShowsMultiHopJoin) {
  Result<Db2Graph::ExplainResult> explain = graph_on_->Explain(
      "g.V().has('age', gte(22)).out('knows').out('knows')"
      ".has('age', lte(25))");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->text.find("MultiHopStep"), std::string::npos)
      << explain->text;
  EXPECT_NE(explain->text.find("join=knows>person>knows>person"),
            std::string::npos)
      << explain->text;
  EXPECT_NE(explain->text.find("est="), std::string::npos);
  EXPECT_NE(explain->text.find("multi-hop join"), std::string::npos)
      << explain->text;
  // The preserved fallback body must not be previewed as if it executed.
  std::string json = explain->json.Dump(0);
  EXPECT_NE(json.find("multi-hop join"), std::string::npos);

  // The control graph explains the same script step-at-a-time.
  Result<Db2Graph::ExplainResult> off =
      graph_off_->Explain("g.V().out('knows').out('knows')");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->text.find("MultiHopStep"), std::string::npos) << off->text;
}

TEST_F(MultiHopCollapseTest, ProfileShowsMultiHopStep) {
  Result<std::vector<Traverser>> out = graph_on_->Execute(
      "g.V().has('age', gte(20)).out('knows').out('knows').profile()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  const std::string trace = (*out)[0].value.as_string();
  EXPECT_NE(trace.find("MultiHopStep"), std::string::npos) << trace;
  EXPECT_NE(trace.find("join=knows>person>knows>person"), std::string::npos)
      << trace;
}

TEST_F(MultiHopCollapseTest, CountFoldObservability) {
  std::unique_ptr<Db2Graph> graph = OpenGraph(Db2Graph::Options());
  const std::string script =
      "g.V(1, 2).out('knows').out('knows').out('knows').count()";

  // Actual rows are the walks counted — the emitted count — not the
  // grouped rows the statement returned.
  Result<std::vector<Traverser>> out = graph->Execute(script);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  const int64_t walks = (*out)[0].value.as_int();
  ASSERT_GT(walks, 2);
  std::vector<OptimizerLog::Decision> folded =
      CountDecisions(*graph->optimizer_log());
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].executions, 1u);
  EXPECT_EQ(folded[0].actual_rows, static_cast<uint64_t>(walks));

  // sysmon.optimizer reads the log of the graph opened last.
  Result<sql::ResultSet> rs = db_.Execute(
      "SELECT chain, actual_rows, executions FROM sysmon.optimizer");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  bool found = false;
  for (const Row& row : rs->rows) {
    if (row[0].as_string() != folded[0].chain) continue;
    found = true;
    EXPECT_EQ(row[1].as_int(), walks);
    EXPECT_EQ(row[2].as_int(), 1);
  }
  EXPECT_TRUE(found);

  Result<Db2Graph::ExplainResult> explain = graph->Explain(script);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->text.find("MultiHopStep"), std::string::npos)
      << explain->text;
  EXPECT_NE(explain->text.find("agg=count"), std::string::npos)
      << explain->text;
  EXPECT_NE(explain->text.find("COUNT(*)"), std::string::npos)
      << explain->text;
  EXPECT_NE(explain->text.find("GROUP BY \"e0\".\"src\""),
            std::string::npos)
      << explain->text;
  EXPECT_NE(explain->text.find("grouped count"), std::string::npos)
      << explain->text;

  Result<std::vector<Traverser>> profiled =
      graph->Execute(script + ".profile()");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_EQ(profiled->size(), 1u);
  const std::string trace = (*profiled)[0].value.as_string();
  EXPECT_NE(trace.find("agg=count"), std::string::npos) << trace;
  EXPECT_NE(trace.find("GROUP BY"), std::string::npos) << trace;
}

TEST_F(MultiHopCollapseTest, QueryLogRecordsCollapsedHops) {
  QueryLog::Global().Clear();
  QueryLog::Global().SetEnabled(true);
  ASSERT_TRUE(
      graph_on_
          ->Execute("g.V().has('age', gte(20)).out('knows').out('knows')")
          .ok());
  ASSERT_TRUE(graph_off_->Execute("g.V(1).out('knows')").ok());
  Result<sql::ResultSet> rs = db_.Execute(
      "SELECT script, collapsed_hops FROM sysmon.query_log "
      "WHERE layer = 'gremlin'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  uint64_t collapsed = 0, stepwise = SIZE_MAX;
  for (const Row& row : rs->rows) {
    if (row[0].as_string().find("out('knows').out") != std::string::npos) {
      collapsed = static_cast<uint64_t>(row[1].as_int());
    } else {
      stepwise = static_cast<uint64_t>(row[1].as_int());
    }
  }
  EXPECT_EQ(collapsed, 2u);
  EXPECT_EQ(stepwise, 0u);
}

// ----------------------------------------------------------------------
// Pass-level unit coverage (no execution)
// ----------------------------------------------------------------------

TEST_F(MultiHopCollapseTest, CompilePreservesFallbackBody) {
  Result<gremlin::Script> script = graph_on_->Compile(
      "g.V().has('age', gte(20)).out('knows').out('knows').out('knows')");
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->statements.size(), 1u);
  const auto& steps = script->statements[0].traversal.steps;
  ASSERT_EQ(steps.size(), 2u);  // g.V() + MultiHopStep
  EXPECT_EQ(steps[1].kind, gremlin::StepKind::kMultiHop);
  ASSERT_NE(steps[1].multi_hop, nullptr);
  EXPECT_EQ(steps[1].multi_hop->hops.size(), 3u);
  EXPECT_EQ(steps[1].body.size(), 3u);  // the preserved out() steps
  for (const auto& preserved : steps[1].body) {
    EXPECT_EQ(preserved.kind, gremlin::StepKind::kVertex);
  }
}

TEST_F(MultiHopCollapseTest, CollapseDisabledLeavesPlanUntouched) {
  Result<gremlin::Script> script =
      graph_off_->Compile("g.V().out('knows').out('knows')");
  ASSERT_TRUE(script.ok());
  for (const auto& step : script->statements[0].traversal.steps) {
    EXPECT_NE(step.kind, gremlin::StepKind::kMultiHop);
  }
}

TEST_F(MultiHopCollapseTest, PlanKeySeparatesOptimizerToggle) {
  // The same script through both graphs must not share cache entries —
  // the optimizer bit is part of the plan key. (They use different caches
  // here, but the key must differ anyway for safety; verify indirectly by
  // checking both compile to their own shapes after each other.)
  const std::string script =
      "g.V().has('age', gte(20)).out('knows').out('knows')";
  ASSERT_TRUE(graph_on_->Execute(script).ok());
  ASSERT_TRUE(graph_off_->Execute(script).ok());
  Result<gremlin::Script> on = graph_on_->Compile(script);
  Result<gremlin::Script> off = graph_off_->Compile(script);
  ASSERT_TRUE(on.ok() && off.ok());
  EXPECT_NE(on->statements[0].traversal.steps.size(),
            off->statements[0].traversal.steps.size());
}

}  // namespace
}  // namespace db2graph::core
