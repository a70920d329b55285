// Copyright (c) 2026 The db2graph-repro Authors.
//
// LinkBench performance benchmark: replays a seeded, pre-generated stream
// of Table 1 operations (plus the labelled 3-hop chain, and SQL writes on
// the read-write workload) against Db2 Graph over the partitioned
// LinkBench overlay, checks every result against the dataset, and prints
// one JSON result line.
//
//   linkbench_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics from an untraced closed-loop
// run. --trace 1 replays the same stream in alternating untraced and
// traced slices and prints the per-layer split: time from QueryTrace
// spans and from timing the public parse/compile entry points, counts
// from the existing registry, SQL and provider counters. Nothing inside
// the program is instrumented for the benchmark. README.md has the
// workload rationale and the layer-to-metric map.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/db2graph.h"
#include "core/plan_cache.h"
#include "core/sql_dialect.h"
#include "gremlin/parser.h"
#include "linkbench/partitioned.h"
#include "perfbench/workload.h"
#include "sql/database.h"

namespace db2graph::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Stream length per client. Clients cycle through their stream; a text
// script repeats only after this many operations, far beyond the plan
// cache's 1,024 entries.
constexpr int kStreamBlocks = 400;
// Untimed verification pass at the head of every stream; its rows total
// is the run's checksum.
constexpr int kWarmupBlocks = 20;
// Set-ups per run (setup_s is their median).
constexpr int kSetupsSmall = 3;
constexpr int kSetupsLarge = 2;
// Every client thread moves to the next allowed CPU this often, so each
// run samples every vCPU equally (see README.md: per-vCPU speed modes).
constexpr double kRotateSeconds = 0.05;
// Length of one slice of the traced run's untraced/traced/1-client
// rotation.
constexpr double kTraceSliceSeconds = 0.25;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void PinCurrentThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- set-up -----------------------------------------------------------------

// One loaded database with its graph, the prepared read handles and the
// prepared write statements.
struct Env {
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<core::Db2Graph> graph;  // declared after db: dies first
  // Indexed [type * 10 + label] for the five Gremlin operation types.
  std::vector<core::PreparedQuery> reads;
  // Indexed by label: INSERT/DELETE on Link_e<label>, UPDATE Node_t<label>.
  std::vector<sql::PreparedStatement> add_link, delete_link, update_node;
};

Status PrepareSql(sql::Database* db, const std::string& text,
                  std::vector<sql::PreparedStatement>* out) {
  Result<sql::PreparedStatement> st = db->Prepare(text);
  if (!st.ok()) return st.status();
  out->push_back(std::move(*st));
  return Status::OK();
}

// Load + Db2Graph::Open + Prepare: what setup_s times.
Result<std::unique_ptr<Env>> SetUp(const WorkloadSpec& spec,
                                   const linkbench::Dataset& dataset) {
  auto env = std::make_unique<Env>();
  env->db = std::make_unique<sql::Database>();
  DB2G_RETURN_NOT_OK(
      linkbench::LoadIntoPartitionedDatabase(env->db.get(), dataset));
  Result<std::unique_ptr<core::Db2Graph>> graph = core::Db2Graph::Open(
      env->db.get(), linkbench::MakePartitionedOverlay());
  if (!graph.ok()) return graph.status();
  env->graph = std::move(*graph);
  if (!spec.text) {
    for (int t = 0; t <= static_cast<int>(OpType::kKhop3); ++t) {
      for (int label = 0; label < 10; ++label) {
        Result<core::PreparedQuery> q = env->graph->Prepare(
            PreparedScript(static_cast<OpType>(t), label));
        if (!q.ok()) return q.status();
        env->reads.push_back(std::move(*q));
      }
    }
  }
  if (spec.writes) {
    for (int label = 0; label < 10; ++label) {
      const std::string link = "Link_e" + std::to_string(label);
      const std::string node = "Node_t" + std::to_string(label);
      DB2G_RETURN_NOT_OK(PrepareSql(
          env->db.get(),
          "INSERT INTO " + link +
              " (id1, id2, visibility, data, time, version) "
              "VALUES (?, ?, 1, ?, 1500000000, 1)",
          &env->add_link));
      DB2G_RETURN_NOT_OK(PrepareSql(
          env->db.get(),
          "DELETE FROM " + link + " WHERE id1 = ? AND id2 = ?",
          &env->delete_link));
      DB2G_RETURN_NOT_OK(PrepareSql(
          env->db.get(), "UPDATE " + node + " SET data = ? WHERE id = ?",
          &env->update_node));
    }
  }
  return env;
}

// --- one operation ----------------------------------------------------------

// What one traced operation's time splits into (micros).
struct Split {
  double parse = 0;
  double compile = 0;  // Db2Graph::Compile minus parse
  double steps = 0;    // top-level step spans, SQL included
  double sql = 0;      // SqlTraceRecord::micros of the spans' statements
  double writes = 0;   // SQL writes, timed whole

  void Add(const Split& other) {
    parse += other.parse;
    compile += other.compile;
    steps += other.steps;
    sql += other.sql;
    writes += other.writes;
  }
};

struct Outcome {
  double micros = 0;
  bool ok = false;
  int64_t rows = 0;  // rows returned (count value for count queries)
  Split split;       // traced runs only
};

// Checks a Gremlin result against the oracle's expectation.
bool CheckTraversers(const Op& op, const std::vector<gremlin::Traverser>& out,
                     int64_t* rows) {
  using Kind = gremlin::Traverser::Kind;
  switch (op.type) {
    case OpType::kGetNode:
      *rows = static_cast<int64_t>(out.size());
      return out.size() == 1 && out[0].kind == Kind::kVertex &&
             out[0].vertex->label == linkbench::Dataset::VertexLabel(op.label) &&
             out[0].vertex->id == Value(op.id1);
    case OpType::kCountLinks:
    case OpType::kKhop3:
      if (out.size() != 1 || !out[0].value.is_int()) return false;
      *rows = out[0].value.as_int();
      return *rows == op.expect;
    case OpType::kGetLink:
      *rows = static_cast<int64_t>(out.size());
      return out.size() == 1 && out[0].kind == Kind::kEdge &&
             out[0].edge->src_id == Value(op.id1) &&
             out[0].edge->dst_id == Value(op.id2);
    case OpType::kGetLinkList:
      *rows = static_cast<int64_t>(out.size());
      for (const gremlin::Traverser& t : out) {
        if (t.kind != Kind::kEdge || !(t.edge->src_id == Value(op.id1))) {
          return false;
        }
      }
      return *rows == op.expect;
    default:
      return false;
  }
}

// Runs `op`, timing only the call into the program; `traced` runs the
// query under a QueryTrace and attributes its time.
Outcome RunOp(const WorkloadSpec& spec, Env* env, const Op& op, bool traced) {
  Outcome result;
  Split* split = traced ? &result.split : nullptr;
  if (IsWrite(op.type)) {
    std::vector<Value> params;
    const sql::PreparedStatement* st = nullptr;
    switch (op.type) {
      case OpType::kAddLink:
        st = &env->add_link[op.label];
        params = {Value(op.id1), Value(op.id2), Value(op.data)};
        break;
      case OpType::kDeleteLink:
        st = &env->delete_link[op.label];
        params = {Value(op.id1), Value(op.id2)};
        break;
      default:
        st = &env->update_node[op.label];
        params = {Value(op.data), Value(op.id1)};
        break;
    }
    Clock::time_point t0 = Clock::now();
    Result<sql::ResultSet> out = st->Execute(params);
    result.micros = Micros(t0, Clock::now());
    if (split != nullptr) split->writes += result.micros;
    result.rows = out.ok() ? out->affected : 0;
    result.ok = out.ok() && out->affected == op.expect;
    return result;
  }

  QueryTrace trace;
  core::ExecOptions options;
  if (split != nullptr) options.trace = &trace;
  Result<std::vector<gremlin::Traverser>> out = Status::OK();
  Clock::time_point t0;
  if (spec.text) {
    t0 = Clock::now();
    out = env->graph->Execute(op.text, options);
  } else {
    options.bindings["vid"] = {Value(op.id1)};
    if (op.type == OpType::kGetLink) options.bindings["vid2"] = {Value(op.id2)};
    const core::PreparedQuery& q =
        env->reads[static_cast<int>(op.type) * 10 + op.label];
    t0 = Clock::now();
    out = q.Execute(options);
  }
  result.micros = Micros(t0, Clock::now());
  result.ok = out.ok() && CheckTraversers(op, *out, &result.rows);

  if (split != nullptr) {
    for (const StepTraceSpan& span : trace.Spans()) {
      if (span.depth == 0) split->steps += static_cast<double>(span.micros);
      for (const SqlTraceRecord& rec : span.statements) {
        split->sql += static_cast<double>(rec.micros);
      }
    }
    // A plan-cache miss parsed and compiled inside Execute; time the same
    // public entry points on the same text to attribute that part.
    if (spec.text && trace.plan_source() == "compiled") {
      Clock::time_point p0 = Clock::now();
      Result<gremlin::Script> parsed = gremlin::ParseGremlin(op.text);
      Clock::time_point p1 = Clock::now();
      Result<gremlin::Script> compiled = env->graph->Compile(op.text);
      Clock::time_point p2 = Clock::now();
      if (parsed.ok() && compiled.ok()) {
        split->parse += Micros(p0, p1);
        split->compile += std::max(0.0, Micros(p1, p2) - Micros(p0, p1));
      }
    }
  }
  return result;
}

// --- clients and slices -----------------------------------------------------

// Everything measured over some set of operations.
struct Tally {
  std::array<std::vector<double>, kNumOpTypes> micros;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rows = 0;
  double busy_us = 0;  // sum of operation latencies
  Split split;         // sums the traced operations' splits

  void Record(const Op& op, const Outcome& outcome) {
    ++attempted;
    busy_us += outcome.micros;
    rows += outcome.rows;
    split.Add(outcome.split);
    if (outcome.ok) {
      micros[static_cast<int>(op.type)].push_back(outcome.micros);
    } else {
      ++failed;
    }
  }

  void Merge(const Tally& other) {
    for (int t = 0; t < kNumOpTypes; ++t) {
      micros[t].insert(micros[t].end(), other.micros[t].begin(),
                       other.micros[t].end());
    }
    attempted += other.attempted;
    failed += other.failed;
    rows += other.rows;
    busy_us += other.busy_us;
    split.Add(other.split);
  }
};

struct Client {
  const std::vector<Op>* stream = nullptr;
  size_t cursor = 0;
};

// Runs the client's next operation and records it.
void Step(const WorkloadSpec& spec, Env* env, Client* client, bool traced,
          Tally* tally) {
  const Op& op = (*client->stream)[client->cursor];
  client->cursor = (client->cursor + 1) % client->stream->size();
  Outcome outcome = RunOp(spec, env, op, traced);
  tally->Record(op, outcome);
  static std::atomic<int> reported{0};
  if (!outcome.ok && reported.fetch_add(1) < 10) {
    std::fprintf(stderr,
                 "FAILED %s label=%d id1=%lld id2=%lld expected=%lld "
                 "got=%lld\n",
                 OpName(op.type), op.label, static_cast<long long>(op.id1),
                 static_cast<long long>(op.id2),
                 static_cast<long long>(op.expect),
                 static_cast<long long>(outcome.rows));
  }
}

// Closed loop: the first `n` clients each issue their next operation as
// soon as the previous one returns, until `seconds` have passed. Each
// client thread moves through `cpus` in turn. Returns the elapsed wall
// time, from start until the last client stopped.
double RunSlice(const WorkloadSpec& spec, Env* env,
                std::vector<Client>* clients, size_t n,
                const std::vector<int>& cpus, double seconds, bool traced,
                Tally* tally) {
  std::vector<Tally> tallies(n);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> ends(n, start);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Client& client = (*clients)[c];
      Tally& mine = tallies[c];
      int64_t slot = -1;
      Clock::time_point now = start;
      do {
        const auto current =
            static_cast<int64_t>(Seconds(start, now) / kRotateSeconds);
        if (current != slot && !cpus.empty()) {
          slot = current;
          PinCurrentThread(cpus[(c + static_cast<size_t>(slot)) % cpus.size()]);
        }
        Step(spec, env, &client, traced, &mine);
        now = Clock::now();
      } while (now < deadline);
      ends[c] = now;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) tally->Merge(t);
  return Seconds(start, *std::max_element(ends.begin(), ends.end()));
}

// Runs client `c` alone, untimed, until its cursor sits on a block
// boundary, so every added link is deleted and every update restored.
void FinishBlock(const WorkloadSpec& spec, Env* env, Client* client,
                 Tally* tally) {
  const size_t block = static_cast<size_t>(BlockSize(spec));
  while (client->cursor % block != 0) Step(spec, env, client, false, tally);
}

// --- end-state check --------------------------------------------------------

Result<int64_t> QueryInt(sql::Database* db, const std::string& sql) {
  Result<sql::ResultSet> rs = db->Execute(sql);
  if (!rs.ok()) return rs.status();
  if (rs->rows.size() != 1 || rs->rows[0].empty() ||
      !rs->rows[0][0].is_int()) {
    return Status::Internal("unexpected result for: " + sql);
  }
  return rs->rows[0][0].as_int();
}

// True when every table holds exactly the loaded rows and every node the
// stream updated holds its loaded content again.
bool TablesAsLoaded(sql::Database* db, const linkbench::Dataset& dataset,
                    const std::vector<std::vector<Op>>& streams) {
  std::array<int64_t, 10> nodes{}, links{};
  for (const linkbench::Node& n : dataset.nodes) ++nodes[n.type];
  for (const linkbench::Link& l : dataset.links) ++links[l.ltype];
  bool ok = true;
  for (int t = 0; t < 10; ++t) {
    Result<int64_t> n =
        QueryInt(db, "SELECT COUNT(*) FROM Node_t" + std::to_string(t));
    Result<int64_t> l =
        QueryInt(db, "SELECT COUNT(*) FROM Link_e" + std::to_string(t));
    if (!n.ok() || *n != nodes[t] || !l.ok() || *l != links[t]) {
      std::fprintf(stderr, "table row count differs from loaded (type %d)\n",
                   t);
      ok = false;
    }
  }
  std::set<int64_t> updated;
  for (const std::vector<Op>& stream : streams) {
    for (const Op& op : stream) {
      if (op.type == OpType::kUpdateNode) updated.insert(op.id1);
    }
  }
  for (int64_t id : updated) {
    const linkbench::Node& node = dataset.nodes[id - 1];
    Result<sql::ResultSet> rs = db->Execute(
        "SELECT version, time, data FROM Node_t" + std::to_string(node.type) +
        " WHERE id = " + std::to_string(id));
    if (!rs.ok() || rs->rows.size() != 1 ||
        !(rs->rows[0][0] == Value(node.version)) ||
        !(rs->rows[0][1] == Value(node.time)) ||
        !(rs->rows[0][2] == Value(node.data))) {
      std::fprintf(stderr, "node %lld differs from its loaded content\n",
                   static_cast<long long>(id));
      ok = false;
    }
  }
  return ok;
}

// --- counters ---------------------------------------------------------------

// The program's own counters, read around untraced slices.
struct Counters {
  std::map<std::string, double> values;

  static Counters Read(Env* env) {
    Counters c;
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
    for (const char* name :
         {gremlin::kParseCallsCounter, core::PlanCache::kHitsCounter,
          core::PlanCache::kMissesCounter,
          core::PlanCache::kStaleStatsRecompilesCounter,
          core::SqlDialect::kSkeletonHitsCounter,
          core::SqlDialect::kSkeletonMissesCounter, "optimizer.attempted",
          "optimizer.chosen", "optimizer.executions", "optimizer.fallbacks"}) {
      c.values[name] = static_cast<double>(registry.GetCounter(name)->load());
    }
    sql::ExecStats::Counts s = env->db->stats().Snapshot();
    c.values["sql.selects"] = static_cast<double>(s.selects);
    c.values["sql.index_probes"] = static_cast<double>(s.index_probes);
    c.values["sql.rows_scanned"] = static_cast<double>(s.rows_scanned);
    c.values["sql.rows_returned"] = static_cast<double>(s.rows_returned);
    c.values["sql.writes"] = static_cast<double>(s.writes);
    auto p = env->graph->provider()->stats().Snapshot();
    c.values["tables_queried"] =
        static_cast<double>(p.vertex_tables_queried + p.edge_tables_queried);
    c.values["fanout_tasks"] = static_cast<double>(p.parallel_tasks);
    c.values["cache_hits"] = static_cast<double>(p.cache_hits);
    c.values["cache_misses"] = static_cast<double>(p.cache_misses);
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    for (const auto& [name, value] : after.values) {
      values[name] += value - before.values.at(name);
    }
  }

  double operator[](const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- statistics and output --------------------------------------------------

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json out = Json::Object();
  for (const Metric& m : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(m.value));
    entry.Set("unit", Json::Str(m.unit));
    out.Set(m.name, std::move(entry));
  }
  return out;
}

// Everything one run measured after the verification pass.
struct Measured {
  Tally main;       // untraced
  Tally traced;     // traced slices (trace mode)
  Tally single;     // client 0 alone (trace mode, several clients)
  Counters counts;  // counter deltas over the untraced slices
  double main_s = 0;
  double single_s = 0;

  const std::vector<double>& MicrosOf(OpType t) const {
    return main.micros[static_cast<int>(t)];
  }
};

std::vector<Metric> EndToEndMetrics(const Measured& m,
                                    const std::vector<double>& setups) {
  std::vector<Metric> metrics;
  std::vector<double> point;
  for (OpType t : {OpType::kGetNode, OpType::kCountLinks, OpType::kGetLink,
                   OpType::kGetLinkList}) {
    metrics.push_back(
        {std::string(OpName(t)) + "_p50_us", Median(m.MicrosOf(t)), "us"});
    point.insert(point.end(), m.MicrosOf(t).begin(), m.MicrosOf(t).end());
  }
  const std::vector<double>& khop3 = m.MicrosOf(OpType::kKhop3);
  metrics.push_back({"point_p99_us", Percentile(point, 0.99), "us"});
  metrics.push_back({"khop3_p50_us", Median(khop3), "us"});
  metrics.push_back({"khop3_p90_us", Percentile(khop3, 0.90), "us"});
  metrics.push_back(
      {"throughput_qps", static_cast<double>(m.main.attempted) / m.main_s,
       "1/s"});
  metrics.push_back({"setup_s", Median(setups), "s"});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return metrics;
}

std::vector<Metric> PerLayerMetrics(const Measured& m, size_t n_clients) {
  const Counters& c = m.counts;
  const double ops = static_cast<double>(m.main.attempted);
  const double traced_ops =
      static_cast<double>(std::max<int64_t>(1, m.traced.attempted));
  const Split& sp = m.traced.split;
  auto hit_ratio = [&](const char* hits, const char* misses) {
    return Ratio(c[hits], c[hits] + c[misses]);
  };
  std::vector<Metric> metrics = {
      {"gremlin.parse_us", sp.parse / traced_ops, "us"},
      {"gremlin.parse_calls_per_op", c[gremlin::kParseCallsCounter] / ops,
       "1/op"},
      {"core.compile_us", sp.compile / traced_ops, "us"},
      {"core.plan_cache_hit_ratio",
       hit_ratio(core::PlanCache::kHitsCounter,
                 core::PlanCache::kMissesCounter),
       "ratio"},
      {"exec.unattributed_us",
       (m.traced.busy_us - sp.parse - sp.compile - sp.steps - sp.writes) /
           traced_ops,
       "us"},
      {"exec.step_self_us", (sp.steps - sp.sql) / traced_ops, "us"},
      {"sql.exec_us", (sp.sql + sp.writes) / traced_ops, "us"},
      {"sql.index_probes_per_op", c["sql.index_probes"] / ops, "1/op"},
      {"sql.rows_scanned_per_row_returned",
       Ratio(c["sql.rows_scanned"], c["sql.rows_returned"]), "ratio"},
      {"core.skeleton_hit_ratio",
       hit_ratio(core::SqlDialect::kSkeletonHitsCounter,
                 core::SqlDialect::kSkeletonMissesCounter),
       "ratio"},
      {"core.optimizer_chosen_ratio",
       Ratio(c["optimizer.chosen"], c["optimizer.attempted"]), "ratio"},
      {"core.multihop_fallbacks", c["optimizer.fallbacks"], "count"},
      {"core.multihop_executions_per_khop3",
       Ratio(c["optimizer.executions"],
             static_cast<double>(m.MicrosOf(OpType::kKhop3).size())),
       "ratio"},
      {"sql.selects_per_op", c["sql.selects"] / ops, "1/op"},
      {"core.tables_queried_per_op", c["tables_queried"] / ops, "1/op"},
      {"core.fanout_tasks_per_op", c["fanout_tasks"] / ops, "1/op"},
      {"clients.scaling_ratio",
       n_clients > 1 ? Ratio(ops / m.main_s,
                             static_cast<double>(n_clients) *
                                 static_cast<double>(m.single.attempted) /
                                 m.single_s)
                     : 1.0,
       "ratio"},
      {"core.vertex_cache_hit_ratio", hit_ratio("cache_hits", "cache_misses"),
       "ratio"},
      {"core.stale_stats_recompiles_per_kop",
       1000.0 * c[core::PlanCache::kStaleStatsRecompilesCounter] / ops,
       "1/kop"},
      {"sql.writes_per_op", c["sql.writes"] / ops, "1/op"},
  };
  for (OpType t : {OpType::kAddLink, OpType::kDeleteLink, OpType::kUpdateNode}) {
    metrics.push_back({std::string("sql.") + OpName(t) + "_p50_us",
                       Median(m.MicrosOf(t)), "us"});
  }
  metrics.push_back({"trace.overhead_ratio",
                     Ratio(m.main.busy_us / ops, m.traced.busy_us / traced_ops),
                     "ratio"});
  return metrics;
}

// Json::Dump indents; the result must be one line. Strings never hold a
// raw newline (Dump escapes control characters), so dropping each newline
// with the indentation after it is safe.
std::string OneLine(const Json& json) {
  const std::string pretty = json.Dump(0);
  std::string out;
  for (size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      out.push_back(pretty[i]);
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  return out;
}

int Usage() {
  std::string names;
  for (const std::string& n : WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: linkbench_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:%s\n",
               names.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || args.size() != 4 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace")) {
    return Usage();
  }
  const WorkloadSpec* spec = FindWorkload(args["--workload"]);
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  const bool seed_ok = end != nullptr && *end == '\0';
  const double seconds = std::strtod(args["--seconds"].c_str(), &end);
  const bool seconds_ok = *end == '\0' && seconds > 0 && seconds <= 600;
  const std::string& trace_arg = args["--trace"];
  if (spec == nullptr || !seed_ok || !seconds_ok ||
      (trace_arg != "0" && trace_arg != "1")) {
    return Usage();
  }
  const bool trace_mode = trace_arg == "1";

  const std::vector<int> cpus = AllowedCpus();
  const size_t n_clients =
      spec->all_cpus ? std::max<size_t>(1, cpus.size()) : 1;

  Json stamp = Json::Object();
  stamp.Set("workload", Json::Str(spec->name));
  stamp.Set("scale", Json::Str(spec->large ? "LB-large" : "LB-small"));
  stamp.Set("seed", Json::Number(static_cast<double>(seed)));
  stamp.Set("clients", Json::Number(static_cast<double>(n_clients)));
  stamp.Set("nproc", Json::Number(static_cast<double>(cpus.size())));
  stamp.Set("hardware_concurrency",
            Json::Number(static_cast<double>(std::thread::hardware_concurrency())));
  stamp.Set("pool_workers",
            Json::Number(static_cast<double>(ThreadPool::Shared().worker_count())));
  stamp.Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE));
  stamp.Set("trace", Json::Number(static_cast<double>(trace_mode)));

  // Inputs, all generated before anything is timed.
  linkbench::Config config =
      spec->large ? linkbench::Config::Large() : linkbench::Config::Small();
  config.seed = seed;
  const Clock::time_point run_start = Clock::now();
  auto phase = [&](const char* name) {
    std::fprintf(stderr, "[perfbench] %-10s done at %.2f s\n", name,
                 Seconds(run_start, Clock::now()));
  };
  const linkbench::Dataset dataset = linkbench::GeneratePartitioned(config);
  phase("dataset");
  Oracle oracle(dataset);
  std::vector<std::vector<Op>> streams;
  for (size_t c = 0; c < n_clients; ++c) {
    streams.push_back(GenerateStream(*spec, dataset, &oracle, seed,
                                     static_cast<int>(c), kStreamBlocks));
  }

  phase("streams");
  // Set-up, repeated; the last environment is the one measured.
  std::vector<double> setups;
  std::unique_ptr<Env> env;
  const int n_setups = spec->large ? kSetupsLarge : kSetupsSmall;
  for (int i = 0; i < n_setups; ++i) {
    env.reset();
    Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Env>> made = SetUp(*spec, dataset);
    setups.push_back(Seconds(t0, Clock::now()));
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    env = std::move(*made);
  }

  phase("setup");
  // Verification pass: every client's first blocks, one client at a
  // time, with results checked; its rows total is the stream checksum.
  std::vector<Client> clients(n_clients);
  Tally warmup;
  const size_t warmup_ops =
      static_cast<size_t>(kWarmupBlocks) * static_cast<size_t>(BlockSize(*spec));
  for (size_t c = 0; c < n_clients; ++c) {
    clients[c].stream = &streams[c];
    for (size_t i = 0; i < warmup_ops; ++i) {
      Step(*spec, env.get(), &clients[c], false, &warmup);
    }
  }

  phase("warmup");
  Measured m;
  if (!trace_mode) {
    m.main_s = RunSlice(*spec, env.get(), &clients, n_clients, cpus, seconds,
                        false, &m.main);
  } else {
    const int kinds = n_clients > 1 ? 3 : 2;
    const int slices = std::max(
        kinds, static_cast<int>(std::lround(seconds / kTraceSliceSeconds)));
    for (int s = 0; s < slices; ++s) {
      switch (s % kinds) {
        case 0: {
          Counters before = Counters::Read(env.get());
          m.main_s += RunSlice(*spec, env.get(), &clients, n_clients, cpus,
                               kTraceSliceSeconds, false, &m.main);
          m.counts.AddDelta(before, Counters::Read(env.get()));
          break;
        }
        case 1:
          RunSlice(*spec, env.get(), &clients, n_clients, cpus,
                   kTraceSliceSeconds, true, &m.traced);
          break;
        default:
          m.single_s += RunSlice(*spec, env.get(), &clients, 1, cpus,
                                 kTraceSliceSeconds, false, &m.single);
          break;
      }
    }
  }

  phase("measure");
  Tally cleanup;
  bool state_ok = true;
  if (spec->writes) {
    for (Client& client : clients) FinishBlock(*spec, env.get(), &client, &cleanup);
    state_ok = TablesAsLoaded(env->db.get(), dataset, streams);
  }

  int64_t attempted = 0, failed = 0;
  for (const Tally* t : {&warmup, &m.main, &m.traced, &m.single, &cleanup}) {
    attempted += t->attempted;
    failed += t->failed;
  }

  std::vector<Metric> metrics =
      trace_mode ? PerLayerMetrics(m, n_clients) : EndToEndMetrics(m, setups);

  Json samples = Json::Object();
  for (int t = 0; t < kNumOpTypes; ++t) {
    samples.Set(OpName(static_cast<OpType>(t)),
                Json::Number(static_cast<double>(m.main.micros[t].size())));
  }
  Json detail = Json::Object();
  detail.Set("stamp", stamp);
  detail.Set("samples", std::move(samples));
  detail.Set("stream_checksum", Json::Number(static_cast<double>(warmup.rows)));
  detail.Set("measured_rows", Json::Number(static_cast<double>(m.main.rows)));
  detail.Set("measured_seconds", Json::Number(m.main_s));
  detail.Set("tables_as_loaded", Json::Bool(state_ok));
  detail.Set("setup_seconds", [&] {
    Json a = Json::Array();
    for (double s : setups) a.Append(Json::Number(s));
    return a;
  }());
  std::printf("%s\n", OneLine(detail).c_str());

  Json result = Json::Object();
  result.Set("correct", Json::Bool(failed == 0 && state_ok));
  result.Set("attempted", Json::Number(static_cast<double>(attempted)));
  result.Set("failed", Json::Number(static_cast<double>(failed)));
  result.Set("metrics", MetricsJson(metrics));
  std::printf("%s\n", OneLine(result).c_str());
  // Tearing down a loaded LB-large database takes seconds; the process is
  // done, so skip it.
  std::fflush(stdout);
  std::_Exit(0);
}

}  // namespace
}  // namespace db2graph::perfbench

int main(int argc, char** argv) {
  return db2graph::perfbench::Main(argc, argv);
}
