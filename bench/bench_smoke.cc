// Copyright (c) 2026 The db2graph-repro Authors.
//
// Smoke benchmark guarding performance contracts. Every section runs and
// reports its gates; the exit is nonzero (so ctest reports it) when any
// contract was breached:
//
//  1. Tracing is "zero cost when disabled": the same point-lookup workload
//     runs untraced and traced (by arming the query log's slow-query
//     threshold, which routes queries through the traced path without
//     ever filing them as slow), and traced throughput must stay above a
//     floor fraction of untraced.
//
//  2. Prepared execution compiles once: a 95%-repeated LinkBench mix
//     (three prepared shapes executed with bindings, plus 5% ad-hoc
//     unique scripts) runs against the same logical queries issued as
//     text with inlined ids and the plan cache disabled — the legacy
//     parse-per-call path. The prepared portion must make ZERO
//     ParseGremlin calls, and the prepared slices exactly one plan-cache
//     lookup per ad-hoc query: a prepared execution runs the plan it
//     holds and never goes back through the cache. These are counts, so
//     the gates hold on any host; both paths' q/s are reported in
//     BENCH_prepared.json, not gated (text with the cache on shares the
//     prepared path's cached plans, so their ratio is host noise).
//
//  3. Vectorized block execution beats the scalar operator tree on the
//     workload it exists for: a full-scan + aggregate SQL mix over a
//     column-store table must run at least as fast vectorized as scalar
//     (in practice it wins by multiples — typed kernels never materialize
//     Rows). Results land in BENCH_vectorized.json.
//
//  4. Streaming execution saves work where it should, gated on counts
//     the host cannot move: on a limit-heavy mix over a larger
//     partitioned dataset, with SQL LIMIT pushdown and the parallel
//     fan-out off so only the interpreter's pull cursor bounds the scan,
//     each query must scan strictly fewer rows than the same query with
//     limit() stripped, one whose limit directly follows a vertex source
//     no more rows than its limit, and the edge-sourced g.V().out(l)
//     shape no more than the one block of edges its streamed edge source
//     pulls plus one endpoint probe per edge. On a full-scan mix (where
//     blocks can only add bookkeeping) the default block size must stay
//     within a loose throughput floor of a one-block run of the same
//     graph. Results land in BENCH_streaming.json.
//
//  5. Monitoring is affordable when armed: the same SQL mix runs with all
//     observability instrumentation off (query log disabled, no
//     profiling) and fully on (query log recording + per-operator
//     EXPLAIN ANALYZE profiling on every statement), and the instrumented
//     throughput must stay at or above 0.9x uninstrumented. Results land
//     in BENCH_observability.json.
//
//  6. Governance is near-free: the streaming limit mix runs ungoverned
//     and then governed with generous limits (deadline, row and memory
//     budgets all far from tripping — every block-boundary check, charge
//     and release actually executes), and governed throughput must stay
//     at or above 0.95x ungoverned. Results land in BENCH_governor.json.
//
//  7. Morsel-driven parallelism engages: every statement of the
//     full-scan aggregate SQL mix, run at dop 4, must report dop 4 and at
//     least 4 morsels in its ResultSet. These are counts, so the gate
//     holds on any host. The wall-clock ratios of the SQL mix (dop 4 over
//     dop 1) and of a Gremlin groupCount ablation are measured and
//     reported, with the core count, in BENCH_parallel.json, not gated.
//
//  8. Multi-hop collapse pays on the traversal it exists for: a 3-hop
//     LinkBench-style expansion runs through two graphs over the same
//     database — one with the cost-based collapse enabled (optimizer
//     default) and one forced step-at-a-time — and the collapsed N-way
//     join must be at least as fast. The collapsed graph is additionally
//     required to have actually chosen and executed collapsed plans with
//     zero runtime fallbacks, so the comparison can never silently
//     degenerate into measuring the same path twice. A work gate the host
//     cannot move: the join's last vertex stage is counted from posting
//     runs, so the counted mix must scan at least one row per walk fewer
//     than the same chains returning their final vertices (rows from the
//     database's ExecStats, walks from the summed counts). A statement
//     gate: an id-sourced g.V(k).out(l).out(l).out(l).count(), whose first
//     hop the GraphStep::VertexStep mutation turns into an edge fetch,
//     must still be one SELECT per query (the ExecStats delta) and count
//     what the step-at-a-time graph counts. Results land in
//     BENCH_multihop.json.
//
// All comparisons interleave their modes across rounds and take each
// mode's best round to damp scheduler noise on small CI machines.

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_config.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "core/db2graph.h"
#include "sql/database.h"
#include "sql/table.h"
#include "gremlin/parser.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace {

using db2graph::Result;
using db2graph::Value;
using db2graph::core::Db2Graph;
using db2graph::core::ExecOptions;
using db2graph::core::PreparedQuery;
using db2graph::gremlin::Traverser;

uint64_t ParseCalls() {
  return db2graph::metrics::MetricsRegistry::Global()
      .GetCounter(db2graph::gremlin::kParseCallsCounter)
      ->load();
}

// Query-log entries filed as slow, i.e. carrying their trace.
size_t CountSlowEntries(const db2graph::QueryLog& log) {
  size_t slow = 0;
  for (const db2graph::QueryLog::Entry& e : log.Entries()) {
    if (!e.trace_json.empty()) ++slow;
  }
  return slow;
}

// One-hop neighborhood expansions: every query issues real SQL (edge
// lookups are not cached), which is the workload shape whose overhead the
// tracing contract is about. Pure cache-hit point reads (~1us each) would
// make any per-query trace bookkeeping look catastrophic while being
// irrelevant to real traversals.
double RunBatch(Db2Graph* graph, int queries, int id_range) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < queries; ++i) {
    int64_t id = 1 + (i % id_range);
    Result<std::vector<Traverser>> out =
        graph->Execute("g.V(" + std::to_string(id) + ").out()");
    if (!out.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return queries / elapsed.count();
}

// The three repeated shapes of the 95%-repeated mix: one-hop expansion,
// neighbor ids, and neighbor count — all parameterized on the start
// vertex, which is the LinkBench object-get/assoc-range access pattern.
const char* const kPreparedShapes[] = {
    "g.V(vid).out()",
    "g.V(vid).out().id()",
    "g.V(vid).out().count()",
};
constexpr int kNumShapes = 3;
// One query in 20 (5%) is ad-hoc: globally unique text, so it can never
// be served from any cache and always pays a parse.
constexpr int kAdhocEvery = 20;

struct MixStats {
  double qps = 0;
  uint64_t parse_calls = 0;   // ParseGremlin delta across the batch
  uint64_t plan_lookups = 0;  // plan-cache hits + misses across the batch
  uint64_t adhoc = 0;         // how many ad-hoc (unique-text) queries ran
};

uint64_t PlanLookups(Db2Graph* graph) {
  db2graph::core::PlanCache::Counts c = graph->plan_cache()->Snapshot();
  return c.hits + c.misses;
}

// One slice of the prepared mix: 95% prepared-with-bindings, 5% ad-hoc
// unique scripts. `base` continues the query index across slices (so the
// shape rotation and ad-hoc phase carry over) and `adhoc_seq` persists
// across the whole run so ad-hoc text never repeats. Returns elapsed
// seconds; parse/ad-hoc counts accumulate into `stats`.
double RunPreparedMixSlice(Db2Graph* graph,
                           const std::vector<PreparedQuery>& prepared,
                           int queries, int base, int id_range,
                           uint64_t* adhoc_seq, MixStats* stats) {
  uint64_t parses_before = ParseCalls();
  uint64_t lookups_before = PlanLookups(graph);
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    int i = base + k;
    int64_t id = 1 + (i % id_range);
    Result<std::vector<Traverser>> out = [&] {
      if (i % kAdhocEvery == kAdhocEvery - 1) {
        ++stats->adhoc;
        return graph->Execute("g.V(" + std::to_string(id) + ").out().limit(" +
                              std::to_string(++*adhoc_seq) + ")");
      }
      db2graph::gremlin::Environment binds{{"vid", {Value(id)}}};
      return prepared[i % kNumShapes].Execute(binds);
    }();
    if (!out.ok()) {
      std::fprintf(stderr, "prepared mix query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  stats->parse_calls += ParseCalls() - parses_before;
  stats->plan_lookups += PlanLookups(graph) - lookups_before;
  return elapsed.count();
}

// One slice of the same logical mix issued as text with the id inlined
// and the plan cache opted out — the legacy path where every call
// re-parses and re-optimizes the script.
double RunTextMixSlice(Db2Graph* graph, int queries, int base, int id_range,
                       uint64_t* adhoc_seq, MixStats* stats) {
  ExecOptions opts;
  opts.use_plan_cache = false;
  uint64_t parses_before = ParseCalls();
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    int i = base + k;
    int64_t id = 1 + (i % id_range);
    std::string script;
    if (i % kAdhocEvery == kAdhocEvery - 1) {
      ++stats->adhoc;
      script = "g.V(" + std::to_string(id) + ").out().limit(" +
               std::to_string(++*adhoc_seq) + ")";
    } else {
      const char* shape = kPreparedShapes[i % kNumShapes];
      script = shape;
      size_t pos = script.find("vid");
      script.replace(pos, 3, std::to_string(id));
    }
    Result<std::vector<Traverser>> out = graph->Execute(script, opts);
    if (!out.ok()) {
      std::fprintf(stderr, "text mix query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  stats->parse_calls += ParseCalls() - parses_before;
  return elapsed.count();
}

// ---- Vectorized-vs-scalar SQL workload. ----

// Full scans and aggregates: the shapes the columnar path exists for.
// Every query drains the table, so the comparison is pure per-row
// operator cost (kernel loop vs Row materialization + tree-walk eval).
std::string VectorMixQuery(int i) {
  switch (i % 5) {
    case 0:
      return "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM Wide";
    case 1:
      return "SELECT a, b FROM Wide WHERE a > 500000";
    case 2:
      return "SELECT AVG(b) FROM Wide WHERE a < 250000";
    case 3:
      return "SELECT g, COUNT(*), SUM(a) FROM Wide GROUP BY g";
    default:
      return "SELECT COUNT(b) FROM Wide WHERE s = 'x7'";
  }
}

// Runs `queries` instances of the SQL mix; returns elapsed seconds.
double RunSqlMixSlice(db2graph::sql::Database* db, int queries, int base) {
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    Result<db2graph::sql::ResultSet> out = db->Execute(VectorMixQuery(base + k));
    if (!out.ok()) {
      std::fprintf(stderr, "vectorized bench query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// Gate verdicts. A failing gate prints its FAIL line and the run goes on,
// so one failure hides no later section; main returns 1 at the end when
// any gate failed.
int g_failed_gates = 0;

__attribute__((format(printf, 1, 2))) void FailGate(const char* format,
                                                     ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("FAIL: ", stderr);
  std::vfprintf(stderr, format, args);
  va_end(args);
  ++g_failed_gates;
}

// ---- Streaming workloads. ----

// The interpreter's default block: the first pull of a source whose
// limit does not directly follow it.
constexpr uint64_t kPullBlock = 256;

// One query of the limit mix, with the most rows it may scan. A limit
// that directly follows a streamed vertex source makes the pull hint ask
// for exactly `limit` rows. The strategies turn g.V().out(l) into a
// streamed edge-table source followed by its inV() endpoint fetch: the
// first pull takes one block of edges, each of which probes at most one
// endpoint row, and the limit saturates on that block.
struct LimitQuery {
  std::string text;  // ends in .limit(n)
  uint64_t max_scanned = 0;
};

// Limit-heavy: every query carries a limit that streaming can saturate —
// label-pruned single-table limits, multi-table limits, and a one-hop
// expansion capped after the first block. Without the limit each one
// drains every consulted table.
LimitQuery LimitMixShape(int i) {
  switch (i % 3) {
    case 0:
      return {"g.V().hasLabel('vt" + std::to_string(i % 10) + "').limit(5)",
              5};
    case 1:
      return {"g.V().limit(8)", 8};
    default:
      return {"g.V().out('et" + std::to_string(i % 10) + "').limit(5)",
              2 * kPullBlock};
  }
}

std::string LimitMixQuery(int i) { return LimitMixShape(i).text; }

// Full-scan: every query drains its input completely, so streaming has no
// rows to skip and can only add block bookkeeping.
std::string FullScanMixQuery(int i) {
  switch (i % 2) {
    case 0:
      return "g.V().hasLabel('vt" + std::to_string(i % 10) + "').id()";
    default:
      return "g.V().out('et" + std::to_string(i % 10) + "').count()";
  }
}

// Runs `queries` instances of a mix; returns elapsed seconds.
double RunMixSlice(Db2Graph* graph, std::string (*mix)(int), int queries,
                   int base) {
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    Result<std::vector<Traverser>> out = graph->Execute(mix(base + k));
    if (!out.ok()) {
      std::fprintf(stderr, "streaming bench query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// ---- Multi-hop collapse ablation workload. ----

// Three-hop friend-of-friend-of-friend expansions from a small seed set,
// the LinkBench traversal shape the join collapse exists for. The leading
// predicate keeps the whole hop chain adjacent through strategy rewrites,
// so the optimizer sees all three hops; rotating the seed value exercises
// ten distinct cached plans per mode.
std::string HopMixQuery(int i) {
  return "g.V().has('val', eq(" + std::to_string(i % 10) +
         ")).out('link').out('link').out('link').count()";
}

// The same expansion from one start id: GraphStepVertexStepMutation turns
// the first hop into an edge fetch by source id, which the collapse then
// absorbs as the chain's first hop.
std::string IdHopQuery(int i) {
  return "g.V(" + std::to_string(1 + 97 * i) +
         ").out('link').out('link').out('link').count()";
}

// Same, with every execution governed by the given options.
double RunGovernedMixSlice(Db2Graph* graph, const db2graph::core::ExecOptions&
                               options,
                           std::string (*mix)(int), int queries, int base) {
  auto start = std::chrono::steady_clock::now();
  for (int k = 0; k < queries; ++k) {
    Result<std::vector<Traverser>> out =
        graph->Execute(mix(base + k), options);
    if (!out.ok()) {
      std::fprintf(stderr, "governed bench query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
  }
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace

int main() {
  db2graph::linkbench::Config config;
  config.num_vertices = 400;
  db2graph::linkbench::Dataset dataset =
      db2graph::linkbench::GeneratePartitioned(config);
  db2graph::sql::Database db;
  if (!db2graph::linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 2;
  }
  Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
      &db, db2graph::linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
  if (!graph.ok()) {
    std::fprintf(stderr, "open failed: %s\n", graph.status().ToString().c_str());
    return 2;
  }

  constexpr int kQueries = 1500;
  constexpr int kIdRange = 200;
  constexpr int kRounds = 3;
  // Traced throughput must stay within this fraction of untraced. The
  // floor is deliberately loose — it catches pathologies (a mutex on the
  // untraced path, per-record allocation storms), not small regressions.
  constexpr double kRatioFloor = 0.30;

  // The slow-query threshold arms tracing while the query log is on. At
  // 1000 s it is never crossed: armed queries run traced, but none may be
  // filed as slow (with a trace attached). The ring is widened to keep
  // every entry of this section (~12 per query, SQL statements included),
  // so the check below sees all of them.
  db2graph::QueryLog& query_log = db2graph::QueryLog::Global();
  query_log.SetEnabled(true);
  const size_t query_log_capacity = query_log.capacity();
  query_log.SetCapacity(size_t{1} << 18);

  // Warm the vertex cache and code paths in both modes.
  RunBatch(graph->get(), kIdRange, kIdRange);
  query_log.SetThresholdMs(1000000);  // traced, never logged as slow
  RunBatch(graph->get(), kIdRange, kIdRange);
  query_log.SetThresholdMs(0);

  double untraced_best = 0;
  double traced_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double untraced = RunBatch(graph->get(), kQueries, kIdRange);
    if (untraced > untraced_best) untraced_best = untraced;

    query_log.SetThresholdMs(1000000);
    double traced = RunBatch(graph->get(), kQueries, kIdRange);
    query_log.SetThresholdMs(0);
    if (traced > traced_best) traced_best = traced;
  }

  double ratio = traced_best / untraced_best;
  std::printf("bench_smoke: untraced=%.0f q/s traced=%.0f q/s ratio=%.2f "
              "(floor %.2f)\n",
              untraced_best, traced_best, ratio, kRatioFloor);
  const size_t armed_slow = CountSlowEntries(query_log);
  query_log.SetCapacity(query_log_capacity);
  if (armed_slow != 0) {
    FailGate("armed-but-under-threshold queries were "
             "logged as slow\n");
  }
  if (ratio < kRatioFloor) {
    FailGate("traced/untraced throughput ratio %.2f below "
             "floor %.2f\n",
             ratio, kRatioFloor);
  }

  // ---- Prepared-vs-text: compile-once must beat parse-per-call. ----

  std::vector<PreparedQuery> prepared;
  for (const char* shape : kPreparedShapes) {
    Result<PreparedQuery> q = graph->get()->Prepare(shape);
    if (!q.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   q.status().ToString().c_str());
      return 2;
    }
    prepared.push_back(std::move(*q));
  }

  // The hard contract first: once prepared, executing never parses. Run a
  // pure-prepared batch (no ad-hoc admixture) and require a parse-call
  // delta of exactly zero.
  uint64_t parses_before = ParseCalls();
  for (int i = 0; i < 3 * kIdRange; ++i) {
    db2graph::gremlin::Environment binds{
        {"vid", {Value(int64_t{1 + i % kIdRange})}}};
    Result<std::vector<Traverser>> out = prepared[i % kNumShapes].Execute(binds);
    if (!out.ok()) {
      std::fprintf(stderr, "prepared warmup failed: %s\n",
                   out.status().ToString().c_str());
      return 2;
    }
  }
  uint64_t warm_parse_delta = ParseCalls() - parses_before;
  if (warm_parse_delta != 0) {
    FailGate("%llu ParseGremlin calls during pure prepared "
             "execution (expected 0)\n",
             static_cast<unsigned long long>(warm_parse_delta));
  }

  // Alternate short slices of the two modes within each round so ambient
  // load (CI neighbors, thermal throttling) penalizes both about equally,
  // then take each mode's best round.
  constexpr int kSlices = 6;
  constexpr int kSliceQueries = kQueries / kSlices;
  uint64_t adhoc_seq = 0;
  MixStats prepared_best;
  MixStats text_best;
  for (int round = 0; round < kRounds; ++round) {
    MixStats p;
    MixStats t;
    double p_secs = 0;
    double t_secs = 0;
    for (int slice = 0; slice < kSlices; ++slice) {
      int base = slice * kSliceQueries;
      p_secs += RunPreparedMixSlice(graph->get(), prepared, kSliceQueries,
                                    base, kIdRange, &adhoc_seq, &p);
      t_secs += RunTextMixSlice(graph->get(), kSliceQueries, base, kIdRange,
                                &adhoc_seq, &t);
    }
    p.qps = kSlices * kSliceQueries / p_secs;
    t.qps = kSlices * kSliceQueries / t_secs;
    // Within the mix, only the ad-hoc (unique-text) queries may parse or
    // look a plan up; the 95% prepared portion must contribute zero.
    if (p.parse_calls > p.adhoc) {
      FailGate("prepared mix made %llu parse calls for "
               "%llu ad-hoc queries\n",
               static_cast<unsigned long long>(p.parse_calls),
               static_cast<unsigned long long>(p.adhoc));
    }
    if (p.plan_lookups != p.adhoc) {
      FailGate("prepared mix made %llu plan-cache lookups for "
               "%llu ad-hoc queries (expected one each)\n",
               static_cast<unsigned long long>(p.plan_lookups),
               static_cast<unsigned long long>(p.adhoc));
    }
    if (p.qps > prepared_best.qps) prepared_best = p;
    if (t.qps > text_best.qps) text_best = t;
  }

  double speedup = prepared_best.qps / text_best.qps;
  std::printf("bench_prepared: prepared=%.0f q/s text=%.0f q/s speedup=%.2fx "
              "(prepared parses=%llu plan lookups=%llu over %llu ad-hoc, "
              "text parses=%llu)\n",
              prepared_best.qps, text_best.qps, speedup,
              static_cast<unsigned long long>(prepared_best.parse_calls),
              static_cast<unsigned long long>(prepared_best.plan_lookups),
              static_cast<unsigned long long>(prepared_best.adhoc),
              static_cast<unsigned long long>(text_best.parse_calls));

  {
    std::ofstream json("BENCH_prepared.json");
    json << "{\n"
         << "  \"queries_per_round\": " << kQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"repeated_fraction\": 0.95,\n"
         << "  \"prepared_qps\": " << prepared_best.qps << ",\n"
         << "  \"text_qps\": " << text_best.qps << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"prepared_parse_calls\": " << prepared_best.parse_calls
         << ",\n"
         << "  \"prepared_plan_lookups\": " << prepared_best.plan_lookups
         << ",\n"
         << "  \"prepared_adhoc_queries\": " << prepared_best.adhoc << ",\n"
         << "  \"text_parse_calls\": " << text_best.parse_calls << "\n"
         << "}\n";
  }

  // ---- Vectorized-vs-scalar: typed kernels must beat Row tree-walks. ----
  //
  // A dedicated column-store table sized so one query scans enough rows
  // for per-row costs to dominate: mixed int/double/string/group columns
  // with a sprinkling of NULLs so the kernels' validity handling is on
  // the measured path.
  db2graph::sql::Database vec_db;
  if (!vec_db.Execute("CREATE TABLE Wide (a BIGINT, b DOUBLE, "
                      "s VARCHAR(8), g BIGINT)")
           .ok()) {
    std::fprintf(stderr, "vectorized bench setup failed\n");
    return 2;
  }
  {
    db2graph::sql::Table* wide = vec_db.GetTable("Wide");
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 100000; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      db2graph::Row row;
      row.push_back(Value(static_cast<int64_t>(rng % 1000000)));
      row.push_back((rng >> 8) % 16 == 0
                        ? Value()
                        : Value(static_cast<double>((rng >> 16) % 10000) / 4));
      row.push_back(Value("x" + std::to_string((rng >> 32) % 16)));
      row.push_back(Value(static_cast<int64_t>((rng >> 48) % 8)));
      if (!wide->Insert(std::move(row)).ok()) {
        std::fprintf(stderr, "vectorized bench load failed\n");
        return 2;
      }
    }
  }

  constexpr int kVecQueries = 60;
  constexpr int kVecSlices = 4;
  constexpr int kVecSliceQueries = kVecQueries / kVecSlices;
  // Warm both modes once.
  vec_db.SetExecConfig(vec_db.exec_config().vectorized(true));
  RunSqlMixSlice(&vec_db, 5, 0);
  vec_db.SetExecConfig(vec_db.exec_config().vectorized(false));
  RunSqlMixSlice(&vec_db, 5, 0);

  double vectorized_best = 0;
  double scalar_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double v_secs = 0;
    double s_secs = 0;
    for (int slice = 0; slice < kVecSlices; ++slice) {
      int base = slice * kVecSliceQueries;
      vec_db.SetExecConfig(vec_db.exec_config().vectorized(true));
      v_secs += RunSqlMixSlice(&vec_db, kVecSliceQueries, base);
      vec_db.SetExecConfig(vec_db.exec_config().vectorized(false));
      s_secs += RunSqlMixSlice(&vec_db, kVecSliceQueries, base);
    }
    if (kVecQueries / v_secs > vectorized_best)
      vectorized_best = kVecQueries / v_secs;
    if (kVecQueries / s_secs > scalar_best) scalar_best = kVecQueries / s_secs;
  }
  vec_db.SetExecConfig(vec_db.exec_config().vectorized(true));

  double vec_speedup = vectorized_best / scalar_best;
  std::printf("bench_vectorized: vectorized=%.0f q/s scalar=%.0f q/s "
              "speedup=%.2fx\n",
              vectorized_best, scalar_best, vec_speedup);

  {
    std::ofstream json("BENCH_vectorized.json");
    json << "{\n"
         << "  \"table_rows\": 100000,\n"
         << "  \"mix_queries\": " << kVecQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"vectorized_qps\": " << vectorized_best << ",\n"
         << "  \"scalar_qps\": " << scalar_best << ",\n"
         << "  \"speedup\": " << vec_speedup << "\n"
         << "}\n";
  }

  // Floor: the vectorized path must at least match the scalar tree on
  // its home workload. In practice it wins by multiples; equality is the
  // regression tripwire.
  if (vectorized_best < scalar_best) {
    FailGate("vectorized throughput %.0f q/s below "
             "scalar %.0f q/s\n",
             vectorized_best, scalar_best);
  }

  // ---- Monitoring overhead: armed instrumentation must stay cheap. ----
  //
  // Same column-store mix, instrumentation off vs fully on (query-log
  // recording plus per-operator profiling of every SELECT). The profiled
  // mode pays two clock reads per operator block plus one ring push per
  // statement; the floor catches that turning into anything worse.
  constexpr double kObsFloor = 0.90;
  db2graph::QueryLog& qlog = db2graph::QueryLog::Global();
  const bool qlog_was_enabled = qlog.enabled();
  auto set_instrumentation = [&](bool on) {
    qlog.SetEnabled(on);
    vec_db.SetExecConfig(vec_db.exec_config().profile(on));
  };
  // Warm both modes.
  set_instrumentation(false);
  RunSqlMixSlice(&vec_db, 5, 0);
  set_instrumentation(true);
  RunSqlMixSlice(&vec_db, 5, 0);

  double plain_best = 0;
  double instrumented_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double plain_secs = 0;
    double inst_secs = 0;
    for (int slice = 0; slice < kVecSlices; ++slice) {
      int base = slice * kVecSliceQueries;
      set_instrumentation(false);
      plain_secs += RunSqlMixSlice(&vec_db, kVecSliceQueries, base);
      set_instrumentation(true);
      inst_secs += RunSqlMixSlice(&vec_db, kVecSliceQueries, base);
    }
    if (kVecQueries / plain_secs > plain_best)
      plain_best = kVecQueries / plain_secs;
    if (kVecQueries / inst_secs > instrumented_best)
      instrumented_best = kVecQueries / inst_secs;
  }
  vec_db.SetExecConfig(vec_db.exec_config().profile(false));
  qlog.SetEnabled(qlog_was_enabled);

  double obs_ratio = instrumented_best / plain_best;
  std::printf("bench_observability: plain=%.0f q/s instrumented=%.0f q/s "
              "ratio=%.2f (floor %.2f)\n",
              plain_best, instrumented_best, obs_ratio, kObsFloor);

  {
    std::ofstream json("BENCH_observability.json");
    json << "{\n"
         << "  \"table_rows\": 100000,\n"
         << "  \"mix_queries\": " << kVecQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"plain_qps\": " << plain_best << ",\n"
         << "  \"instrumented_qps\": " << instrumented_best << ",\n"
         << "  \"ratio\": " << obs_ratio << ",\n"
         << "  \"floor\": " << kObsFloor << "\n"
         << "}\n";
  }

  if (obs_ratio < kObsFloor) {
    FailGate("instrumented/plain throughput ratio %.2f "
             "below floor %.2f\n",
             obs_ratio, kObsFloor);
  }

  // ---- Streaming: early termination must save work. ----
  //
  // A larger dataset than the tracing contract's: with ~40 rows per table
  // a full drain is too small to tell from a bounded scan, so the
  // streaming section gets its own database where a limit actually skips
  // thousands of rows per query.
  db2graph::linkbench::Config stream_config;
  stream_config.num_vertices = 20000;
  db2graph::linkbench::Dataset stream_dataset =
      db2graph::linkbench::GeneratePartitioned(stream_config);
  db2graph::sql::Database stream_db;
  if (!db2graph::linkbench::LoadIntoPartitionedDatabase(&stream_db,
                                                        stream_dataset)
           .ok()) {
    std::fprintf(stderr, "streaming bench load failed\n");
    return 2;
  }
  const db2graph::overlay::OverlayConfig stream_overlay =
      db2graph::linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false);
  Result<std::unique_ptr<Db2Graph>> streaming =
      Db2Graph::Open(&stream_db, stream_overlay);
  // The work gates' graph: no SQL LIMIT pushdown and no parallel
  // fan-out, so the interpreter's pull cursor alone bounds each scan and
  // rows_scanned does not depend on how far producers ran ahead.
  Db2Graph::Options pull_options;
  pull_options.strategies.limit_pushdown = false;
  pull_options.runtime.parallel_fanout = false;
  Result<std::unique_ptr<Db2Graph>> pull_only =
      Db2Graph::Open(&stream_db, stream_overlay, pull_options);
  // The full-scan floor's reference: the same graph run as one block.
  Db2Graph::Options one_block_options;
  one_block_options.exec = db2graph::ExecConfig().block_rows(
      std::numeric_limits<size_t>::max());
  Result<std::unique_ptr<Db2Graph>> one_block =
      Db2Graph::Open(&stream_db, stream_overlay, one_block_options);
  if (!streaming.ok() || !pull_only.ok() || !one_block.ok()) {
    std::fprintf(stderr, "streaming bench open failed\n");
    return 2;
  }

  // Rows one query scans on the pull-only graph.
  auto rows_scanned = [&](const std::string& q) {
    const uint64_t before = stream_db.stats().Snapshot().rows_scanned;
    Result<std::vector<Traverser>> out = pull_only->get()->Execute(q);
    if (!out.ok()) {
      std::fprintf(stderr, "streaming bench query failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(2);
    }
    return stream_db.stats().Snapshot().rows_scanned - before;
  };
  // One pass over every shape and label of the limit mix. A saturated
  // limit that kept pulling would scan what the stripped query scans; a
  // pull hint that stopped shrinking the first pull would scan a whole
  // block where a direct limit needs only its limit; an edge source that
  // did not stream would scan its whole table.
  constexpr int kGateQueries = 30;
  uint64_t limit_rows = 0;
  uint64_t stripped_rows = 0;
  std::string work_failure;
  for (int i = 0; i < kGateQueries && work_failure.empty(); ++i) {
    const LimitQuery q = LimitMixShape(i);
    const std::string stripped = q.text.substr(0, q.text.rfind(".limit("));
    const uint64_t limited = rows_scanned(q.text);
    const uint64_t drained = rows_scanned(stripped);
    limit_rows += limited;
    stripped_rows += drained;
    char buf[256];
    if (limited >= drained) {
      std::snprintf(buf, sizeof(buf),
                    "%s scanned %llu rows, not fewer than %llu without "
                    "limit()",
                    q.text.c_str(), static_cast<unsigned long long>(limited),
                    static_cast<unsigned long long>(drained));
      work_failure = buf;
    } else if (limited > q.max_scanned) {
      std::snprintf(buf, sizeof(buf),
                    "%s scanned %llu rows, more than its bound %llu",
                    q.text.c_str(), static_cast<unsigned long long>(limited),
                    static_cast<unsigned long long>(q.max_scanned));
      work_failure = buf;
    }
  }

  // Full-scan mix: every query drains its input, so blocks save nothing
  // and can only add per-block bookkeeping over a one-block run.
  constexpr int kScanQueries = 40;
  RunMixSlice(streaming->get(), FullScanMixQuery, kScanQueries, 0);  // warm
  RunMixSlice(one_block->get(), FullScanMixQuery, kScanQueries, 0);
  double blocked_scan_best = 0;
  double one_block_scan_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double b_scan = RunMixSlice(streaming->get(), FullScanMixQuery,
                                kScanQueries, 0);
    double o_scan = RunMixSlice(one_block->get(), FullScanMixQuery,
                                kScanQueries, 0);
    if (kScanQueries / b_scan > blocked_scan_best)
      blocked_scan_best = kScanQueries / b_scan;
    if (kScanQueries / o_scan > one_block_scan_best)
      one_block_scan_best = kScanQueries / o_scan;
  }
  double scan_ratio = blocked_scan_best / one_block_scan_best;
  std::printf(
      "bench_streaming: limit mix rows_scanned=%llu vs %llu without "
      "limit(); full-scan mix blocked=%.0f q/s one-block=%.0f q/s "
      "ratio=%.2f\n",
      static_cast<unsigned long long>(limit_rows),
      static_cast<unsigned long long>(stripped_rows), blocked_scan_best,
      one_block_scan_best, scan_ratio);

  {
    std::ofstream json("BENCH_streaming.json");
    json << "{\n"
         << "  \"limit_mix_queries\": " << kGateQueries << ",\n"
         << "  \"limit_rows_scanned\": " << limit_rows << ",\n"
         << "  \"stripped_rows_scanned\": " << stripped_rows << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"blocked_fullscan_qps\": " << blocked_scan_best << ",\n"
         << "  \"one_block_fullscan_qps\": " << one_block_scan_best
         << ",\n"
         << "  \"fullscan_ratio\": " << scan_ratio << "\n"
         << "}\n";
  }

  // Gates: the limit mix's counts guard the pull hint and the
  // saturated-limit cancel; on the full-scan mix the block machinery may
  // cost something, but an inversion past the loose floor means
  // per-block overhead turned pathological.
  constexpr double kFullScanFloor = 0.50;
  if (!work_failure.empty()) {
    FailGate("limit mix: %s\n", work_failure.c_str());
  }
  if (scan_ratio < kFullScanFloor) {
    FailGate("blocked/one-block full-scan throughput "
             "ratio %.2f below floor %.2f\n",
             scan_ratio, kFullScanFloor);
  }

  // ---- Governor overhead: governed-but-not-tripping must be free. ----
  //
  // Generous limits put a live QueryContext on every execution, so each
  // block boundary pays the real deadline / budget checks and the memory
  // accounting charges and releases — the worst honest case for a query
  // that never violates anything.
  db2graph::core::ExecOptions governed_options;
  governed_options.config = db2graph::ExecConfig()
                                .timeout_ms(600000)
                                .max_result_rows(100000000)
                                .max_memory_bytes(int64_t{16} << 30);
  constexpr int kStreamQueries = 240;
  constexpr int kStreamSlices = 4;
  constexpr int kStreamSliceQueries = kStreamQueries / kStreamSlices;
  RunMixSlice(streaming->get(), LimitMixQuery, kStreamQueries, 0);  // warm
  double ungoverned_best = 0;
  double governed_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double u = 0;
    double g = 0;
    for (int slice = 0; slice < kStreamSlices; ++slice) {
      int base = slice * kStreamSliceQueries;
      u += RunMixSlice(streaming->get(), LimitMixQuery, kStreamSliceQueries,
                       base);
      g += RunGovernedMixSlice(streaming->get(), governed_options,
                               LimitMixQuery, kStreamSliceQueries, base);
    }
    if (kStreamQueries / u > ungoverned_best)
      ungoverned_best = kStreamQueries / u;
    if (kStreamQueries / g > governed_best) governed_best = kStreamQueries / g;
  }
  double governor_ratio = governed_best / ungoverned_best;
  std::printf(
      "bench_governor: ungoverned=%.0f q/s governed=%.0f q/s ratio=%.2f\n",
      ungoverned_best, governed_best, governor_ratio);

  {
    std::ofstream json("BENCH_governor.json");
    json << "{\n"
         << "  \"queries\": " << kStreamQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"ungoverned_qps\": " << ungoverned_best << ",\n"
         << "  \"governed_qps\": " << governed_best << ",\n"
         << "  \"governed_ratio\": " << governor_ratio << "\n"
         << "}\n";
  }

  constexpr double kGovernorFloor = 0.95;
  if (governor_ratio < kGovernorFloor) {
    FailGate("governed throughput ratio %.2f below "
             "floor %.2f\n",
             governor_ratio, kGovernorFloor);
  }

  // ---- Parallelism: dop-4 statements must run morsel-driven. ----
  //
  // SQL side: the same full-scan aggregate mix the vectorized contract
  // uses, re-run under the session ExecConfig at dop 1 and dop 4 (the
  // parallel scan/aggregate operators engage at dop > 1). ExecConfig()
  // and ExecConfig().parallelism(1) resolve to the same dop and the same
  // operators, so dop 1 is the only serial mode. Gremlin side: a
  // groupCount barrier ablation over the 20k-vertex streaming dataset,
  // with the dop carried per-execution through ExecOptions::config.
  const unsigned cores = std::thread::hardware_concurrency();

  auto run_sql_at = [&](const db2graph::ExecConfig& cfg, int queries,
                        int base) {
    vec_db.SetExecConfig(cfg);
    return RunSqlMixSlice(&vec_db, queries, base);
  };
  const db2graph::ExecConfig dop1_cfg = db2graph::ExecConfig().parallelism(1);
  const db2graph::ExecConfig dop4_cfg = db2graph::ExecConfig().parallelism(4);

  // The gate: one pass over every statement of the mix at dop 4, each
  // reporting the dop it ran at and the morsels it dispatched. A driver
  // that stops fanning out (or a planner that stops choosing the morsel
  // operators) reports dop 1 / morsels 0 here on any host.
  constexpr uint64_t kGateDop = 4;
  constexpr uint64_t kMinMorsels = 4;
  vec_db.SetExecConfig(dop4_cfg);
  uint64_t gate_min_morsels = std::numeric_limits<uint64_t>::max();
  std::string morsel_failure;
  for (int i = 0; i < 5; ++i) {
    const std::string sql = VectorMixQuery(i);
    Result<db2graph::sql::ResultSet> out = vec_db.Execute(sql);
    if (!out.ok()) {
      std::fprintf(stderr, "parallel bench query failed: %s\n",
                   out.status().ToString().c_str());
      return 2;
    }
    if (out->exec.morsels < gate_min_morsels) {
      gate_min_morsels = out->exec.morsels;
    }
    if (morsel_failure.empty() &&
        (out->exec.dop != kGateDop || out->exec.morsels < kMinMorsels)) {
      morsel_failure = sql + " reported dop " +
                       std::to_string(out->exec.dop) + " and " +
                       std::to_string(out->exec.morsels) + " morsels";
    }
  }
  vec_db.SetExecConfig(db2graph::ExecConfig());

  // Wall clock, reported only: the ratios swing with host load.
  run_sql_at(dop1_cfg, 5, 0);  // warm
  run_sql_at(dop4_cfg, 5, 0);
  double par_dop1_best = 0;
  double par_dop4_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double dop1_secs = 0;
    double dop4_secs = 0;
    for (int slice = 0; slice < kVecSlices; ++slice) {
      int base = slice * kVecSliceQueries;
      dop1_secs += run_sql_at(dop1_cfg, kVecSliceQueries, base);
      dop4_secs += run_sql_at(dop4_cfg, kVecSliceQueries, base);
    }
    if (kVecQueries / dop1_secs > par_dop1_best)
      par_dop1_best = kVecQueries / dop1_secs;
    if (kVecQueries / dop4_secs > par_dop4_best)
      par_dop4_best = kVecQueries / dop4_secs;
  }
  vec_db.SetExecConfig(db2graph::ExecConfig());

  // Gremlin groupCount ablation: barrier drains split into per-worker
  // chunks at dop > 1; serial and parallel must agree on results (the
  // equivalence suite asserts that — here only throughput is measured).
  constexpr int kGroupCountQueries = 30;
  auto run_groupcount_at = [&](int dop) {
    ExecOptions opts;
    opts.config = db2graph::ExecConfig().parallelism(dop);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kGroupCountQueries; ++i) {
      const std::string q = i % 2 == 0
                                ? "g.V().label().groupCount()"
                                : "g.V().values('version').groupCount()";
      Result<std::vector<Traverser>> out =
          streaming->get()->Execute(q, opts);
      if (!out.ok()) {
        std::fprintf(stderr, "groupCount bench query failed: %s\n",
                     out.status().ToString().c_str());
        std::exit(2);
      }
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return kGroupCountQueries / elapsed.count();
  };
  run_groupcount_at(1);  // warm
  run_groupcount_at(4);
  double gc_dop1_best = 0;
  double gc_dop4_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double g1 = run_groupcount_at(1);
    double g4 = run_groupcount_at(4);
    if (g1 > gc_dop1_best) gc_dop1_best = g1;
    if (g4 > gc_dop4_best) gc_dop4_best = g4;
  }

  double dop4_speedup = par_dop4_best / par_dop1_best;
  double gc_speedup = gc_dop4_best / gc_dop1_best;
  std::printf(
      "bench_parallel: cores=%u sql dop4 statements min morsels=%llu "
      "(gate dop %llu, >= %llu morsels); sql dop1=%.0f q/s dop4=%.0f q/s "
      "dop4/dop1=%.2fx; gremlin groupCount dop1=%.0f q/s dop4=%.0f q/s "
      "speedup=%.2fx\n",
      cores, static_cast<unsigned long long>(gate_min_morsels),
      static_cast<unsigned long long>(kGateDop),
      static_cast<unsigned long long>(kMinMorsels), par_dop1_best,
      par_dop4_best, dop4_speedup, gc_dop1_best, gc_dop4_best, gc_speedup);

  {
    std::ofstream json("BENCH_parallel.json");
    json << "{\n"
         << "  \"cores\": " << cores << ",\n"
         << "  \"mix_queries\": " << kVecQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"sql_dop4_min_morsels\": " << gate_min_morsels << ",\n"
         << "  \"sql_dop1_qps\": " << par_dop1_best << ",\n"
         << "  \"sql_dop4_qps\": " << par_dop4_best << ",\n"
         << "  \"sql_dop4_over_dop1\": " << dop4_speedup << ",\n"
         << "  \"gremlin_groupcount_dop1_qps\": " << gc_dop1_best << ",\n"
         << "  \"gremlin_groupcount_dop4_qps\": " << gc_dop4_best << ",\n"
         << "  \"gremlin_groupcount_speedup\": " << gc_speedup << "\n"
         << "}\n";
  }

  if (!morsel_failure.empty()) {
    FailGate("dop-4 SQL mix not morsel-driven: %s "
             "(gate: dop %llu, at least %llu morsels)\n",
             morsel_failure.c_str(),
             static_cast<unsigned long long>(kGateDop),
             static_cast<unsigned long long>(kMinMorsels));
  }

  // ---- Multi-hop collapse: one N-way join must beat three round trips. --
  //
  // A dedicated graph with the schema shape collapse legality requires: a
  // PRIMARY KEY on the vertex id and indexes on both edge endpoints. Each
  // node carries three out-edges, so a 3-hop expansion touches 27 paths
  // per seed — enough join work per query for the SQL round-trip count to
  // be the measured difference.
  constexpr int kHopNodes = 1000;
  db2graph::sql::Database hop_db;
  if (!hop_db.ExecuteScript(
                 "CREATE TABLE node (id BIGINT PRIMARY KEY, val BIGINT);"
                 "CREATE TABLE link (src BIGINT, dst BIGINT);"
                 "CREATE INDEX idx_link_src ON link (src);"
                 "CREATE INDEX idx_link_dst ON link (dst);")
           .ok()) {
    std::fprintf(stderr, "multihop bench setup failed\n");
    return 2;
  }
  {
    db2graph::sql::Table* node = hop_db.GetTable("node");
    db2graph::sql::Table* link = hop_db.GetTable("link");
    for (int i = 1; i <= kHopNodes; ++i) {
      db2graph::Row row;
      row.push_back(Value(int64_t{i}));
      row.push_back(Value(int64_t{i % 97}));
      bool ok = node->Insert(std::move(row)).ok();
      for (int mul : {1, 3, 7}) {
        db2graph::Row edge;
        edge.push_back(Value(int64_t{i}));
        edge.push_back(Value(int64_t{(i * mul) % kHopNodes + 1}));
        ok = ok && link->Insert(std::move(edge)).ok();
      }
      if (!ok) {
        std::fprintf(stderr, "multihop bench load failed\n");
        return 2;
      }
    }
  }
  const char* hop_overlay = R"json({
    "v_tables": [{"table_name": "node", "id": "id", "fix_label": true,
                  "label": "'node'", "properties": ["val"]}],
    "e_tables": [{"table_name": "link", "src_v_table": "node",
                  "src_v": "src", "dst_v_table": "node", "dst_v": "dst",
                  "implicit_edge_id": true, "fix_label": true,
                  "label": "'link'"}]
  })json";
  Result<std::unique_ptr<Db2Graph>> collapsed =
      Db2Graph::Open(&hop_db, hop_overlay);
  Db2Graph::Options stepwise_options;
  stepwise_options.optimizer.multi_hop_collapse = false;
  Result<std::unique_ptr<Db2Graph>> stepwise =
      Db2Graph::Open(&hop_db, hop_overlay, stepwise_options);
  if (!collapsed.ok() || !stepwise.ok()) {
    std::fprintf(stderr, "multihop bench open failed\n");
    return 2;
  }

  constexpr int kHopQueries = 240;
  constexpr int kHopSlices = 4;
  constexpr int kHopSliceQueries = kHopQueries / kHopSlices;
  // Warm both modes (compiles all ten plan shapes per graph).
  RunMixSlice(collapsed->get(), HopMixQuery, 10, 0);
  RunMixSlice(stepwise->get(), HopMixQuery, 10, 0);

  // The ablation is only meaningful if the two modes genuinely diverge:
  // the collapsed graph must have chosen collapsed plans and run them as
  // joins (no runtime fallbacks), and the step-at-a-time graph — opened
  // with the pass disabled — must never even have attempted one.
  db2graph::core::OptimizerLog::Counters collapse_counters =
      collapsed->get()->optimizer_log()->counters();
  db2graph::core::OptimizerLog::Counters stepwise_counters =
      stepwise->get()->optimizer_log()->counters();
  if (collapse_counters.chosen == 0 || collapse_counters.executions == 0 ||
      collapse_counters.fallbacks != 0 || stepwise_counters.attempted != 0) {
    FailGate("multihop ablation not engaged (chosen=%llu executions=%llu "
             "fallbacks=%llu stepwise_attempted=%llu)\n",
             static_cast<unsigned long long>(collapse_counters.chosen),
             static_cast<unsigned long long>(collapse_counters.executions),
             static_cast<unsigned long long>(collapse_counters.fallbacks),
             static_cast<unsigned long long>(stepwise_counters.attempted));
  }

  // Work gate: the counted last stage visits no rows. Without it every
  // walk visits its final vertex row, exactly as the chain does when it
  // returns those vertices (count() stripped), so counting must save at
  // least one scanned row per walk counted.
  uint64_t counted_rows = 0;
  uint64_t returned_rows = 0;
  uint64_t walks = 0;
  for (int k = 0; k < 10; ++k) {
    const std::string counted_query = HopMixQuery(k);
    const std::string returned_query =
        counted_query.substr(0, counted_query.rfind(".count()"));
    uint64_t before = hop_db.stats().Snapshot().rows_scanned;
    Result<std::vector<Traverser>> counted =
        collapsed->get()->Execute(counted_query);
    counted_rows += hop_db.stats().Snapshot().rows_scanned - before;
    before = hop_db.stats().Snapshot().rows_scanned;
    Result<std::vector<Traverser>> returned =
        collapsed->get()->Execute(returned_query);
    returned_rows += hop_db.stats().Snapshot().rows_scanned - before;
    if (!counted.ok() || !returned.ok() || counted->size() != 1) {
      std::fprintf(stderr, "multihop work-gate query failed\n");
      return 2;
    }
    const uint64_t count = static_cast<uint64_t>((*counted)[0].value.as_int());
    if (count != returned->size()) {
      FailGate("counted walks %llu differ from the %zu vertices returned "
               "for %s\n",
               static_cast<unsigned long long>(count), returned->size(),
               counted_query.c_str());
    }
    walks += count;
  }
  std::printf("bench_multihop: walks=%llu rows_scanned counted=%llu "
              "returned=%llu\n",
              static_cast<unsigned long long>(walks),
              static_cast<unsigned long long>(counted_rows),
              static_cast<unsigned long long>(returned_rows));
  if (walks == 0 || counted_rows + walks > returned_rows) {
    FailGate("counted multi-hop mix scanned %llu rows for %llu walks; the "
             "same chains returning their vertices scanned %llu (counting "
             "must save a row per walk)\n",
             static_cast<unsigned long long>(counted_rows),
             static_cast<unsigned long long>(walks),
             static_cast<unsigned long long>(returned_rows));
  }

  // Statement gate: the id-sourced chain, first hop included, is one
  // SELECT per query, and counts what step-at-a-time execution counts.
  constexpr int kIdHopQueries = 10;
  uint64_t id_selects = 0;
  for (int k = 0; k < kIdHopQueries; ++k) {
    const std::string query = IdHopQuery(k);
    uint64_t before = hop_db.stats().Snapshot().selects;
    Result<std::vector<Traverser>> joined = collapsed->get()->Execute(query);
    id_selects += hop_db.stats().Snapshot().selects - before;
    Result<std::vector<Traverser>> walked = stepwise->get()->Execute(query);
    if (!joined.ok() || !walked.ok() || joined->size() != 1 ||
        walked->size() != 1) {
      std::fprintf(stderr, "multihop statement-gate query failed\n");
      return 2;
    }
    if ((*joined)[0].value != (*walked)[0].value) {
      FailGate("%s counted %s collapsed but %s step-at-a-time\n",
               query.c_str(), (*joined)[0].value.ToString().c_str(),
               (*walked)[0].value.ToString().c_str());
    }
  }
  std::printf("bench_multihop: id-sourced 3-hop counts issued %llu SELECTs "
              "for %d queries\n",
              static_cast<unsigned long long>(id_selects), kIdHopQueries);
  if (id_selects != static_cast<uint64_t>(kIdHopQueries)) {
    FailGate("id-sourced 3-hop counts issued %llu SELECTs for %d queries "
             "(expected one each)\n",
             static_cast<unsigned long long>(id_selects), kIdHopQueries);
  }

  double collapsed_best = 0;
  double stepwise_best = 0;
  for (int round = 0; round < kRounds; ++round) {
    double c_secs = 0;
    double s_secs = 0;
    for (int slice = 0; slice < kHopSlices; ++slice) {
      int base = slice * kHopSliceQueries;
      c_secs += RunMixSlice(collapsed->get(), HopMixQuery,
                            kHopSliceQueries, base);
      s_secs += RunMixSlice(stepwise->get(), HopMixQuery,
                            kHopSliceQueries, base);
    }
    if (kHopQueries / c_secs > collapsed_best)
      collapsed_best = kHopQueries / c_secs;
    if (kHopQueries / s_secs > stepwise_best)
      stepwise_best = kHopQueries / s_secs;
  }
  collapse_counters = collapsed->get()->optimizer_log()->counters();

  double hop_speedup = collapsed_best / stepwise_best;
  std::printf(
      "bench_multihop: collapsed=%.0f q/s step-at-a-time=%.0f q/s "
      "speedup=%.2fx (chosen=%llu executions=%llu fallbacks=%llu)\n",
      collapsed_best, stepwise_best, hop_speedup,
      static_cast<unsigned long long>(collapse_counters.chosen),
      static_cast<unsigned long long>(collapse_counters.executions),
      static_cast<unsigned long long>(collapse_counters.fallbacks));

  {
    std::ofstream json("BENCH_multihop.json");
    json << "{\n"
         << "  \"nodes\": " << kHopNodes << ",\n"
         << "  \"edges\": " << 3 * kHopNodes << ",\n"
         << "  \"hops\": 3,\n"
         << "  \"queries\": " << kHopQueries << ",\n"
         << "  \"rounds\": " << kRounds << ",\n"
         << "  \"collapsed_qps\": " << collapsed_best << ",\n"
         << "  \"step_at_a_time_qps\": " << stepwise_best << ",\n"
         << "  \"speedup\": " << hop_speedup << ",\n"
         << "  \"collapse_chosen\": " << collapse_counters.chosen << ",\n"
         << "  \"collapse_executions\": " << collapse_counters.executions
         << ",\n"
         << "  \"collapse_fallbacks\": " << collapse_counters.fallbacks << ",\n"
         << "  \"work_gate_walks\": " << walks << ",\n"
         << "  \"work_gate_rows_scanned_counted\": " << counted_rows << ",\n"
         << "  \"work_gate_rows_scanned_returned\": " << returned_rows << ",\n"
         << "  \"id_sourced_queries\": " << kIdHopQueries << ",\n"
         << "  \"id_sourced_selects\": " << id_selects << "\n"
         << "}\n";
  }

  // Floor: the collapsed join must at least match step-at-a-time on its
  // home traversal. In practice it wins (one SQL statement instead of one
  // per hop); equality is the regression tripwire.
  if (collapsed_best < stepwise_best) {
    FailGate("collapsed multi-hop throughput %.0f q/s "
             "below step-at-a-time %.0f q/s\n",
             collapsed_best, stepwise_best);
  }
  if (g_failed_gates > 0) {
    std::fprintf(stderr, "bench_smoke: %d gate(s) failed\n", g_failed_gates);
    return 1;
  }
  return 0;
}
