// Reproduces Figure 6 of the paper: throughput with 50 clients
// concurrently submitting LinkBench queries, on all three systems at both
// scales. Systems are built and measured one at a time.
//
// Paper shape: Db2 Graph wins everywhere (up to 1.6x vs GDB-X and 4.2x vs
// JanusGraph) because the relational engine's shared-lock read path
// scales with cores, while GDB-X serializes on its cache latch and the
// Janus-like store on its KV latch.
//
// This binary also runs a Db2Graph-only ablation of the parallel
// multi-table fan-out on the partitioned overlay with PLAIN integer ids —
// the layout where every g.V(id) must consult all 10 vertex tables, so the
// fan-out has real work to do. Results land in BENCH_fig6.json.
// Environment:
//   DB2G_FIG6_CLIENTS        client threads for the ablation (default 8)
//   DB2G_FIG6_QPC            queries per client per query type (default 200)
//   DB2G_FIG6_FANOUT=0|1     run the ablation with one fan-out setting only
//   DB2G_FIG6_SKIP_SYSTEMS=1 skip the heavy three-system comparison
//   DB2G_FIG6_SKIP_ABLATION=1 skip the ablation section

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <thread>

#include "bench/bench_util.h"
#include "common/json.h"

namespace {

using db2graph::Json;
using db2graph::bench::Timer;
using db2graph::linkbench::QueryType;
using db2graph::linkbench::QueryTypeName;
using db2graph::linkbench::Workload;

constexpr int kClients = 50;
constexpr QueryType kTypes[] = {QueryType::kGetNode, QueryType::kCountLinks,
                                QueryType::kGetLink,
                                QueryType::kGetLinkList};

bool EnvFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int parsed = std::atoi(v);
  return parsed > 0 ? parsed : fallback;
}

// Runs one thread per pre-generated query list; returns queries/second.
double RunClients(const std::function<void(const std::string&)>& run,
                  const std::vector<std::vector<std::string>>& per_client) {
  std::atomic<int64_t> completed{0};
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(per_client.size());
  for (const auto& queries : per_client) {
    threads.emplace_back([&run, &queries, &completed] {
      for (const std::string& q : queries) {
        run(q);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(completed.load()) / timer.Seconds();
}

// Per-query-type throughput of one system.
std::vector<double> MeasureSystem(
    const std::function<void(const std::string&)>& run,
    const db2graph::linkbench::Dataset& dataset, int queries_per_client) {
  std::vector<double> out;
  int type_index = 0;
  for (QueryType type : kTypes) {
    std::vector<std::vector<std::string>> per_client(kClients);
    for (int c = 0; c < kClients; ++c) {
      Workload workload(dataset, 1000 + c + 977 * type_index);
      for (int i = 0; i < queries_per_client; ++i) {
        per_client[c].push_back(workload.Next(type));
      }
    }
    for (int i = 0; i < 100; ++i) run(per_client[0][i % queries_per_client]);
    out.push_back(RunClients(run, per_client));
    ++type_index;
  }
  return out;
}

void RunScale(const db2graph::linkbench::Config& config, const char* label,
              int queries_per_client) {
  auto setup = db2graph::bench::SetUpRelational(config, label);
  std::vector<double> db2g = MeasureSystem(
      [&](const std::string& q) { setup.RunDb2Graph(q); }, setup.dataset,
      queries_per_client);
  auto exported = db2graph::bench::ExportFrom(setup.db.get());
  std::vector<double> native;
  {
    auto gdbx = db2graph::bench::MakeNative(exported);
    native = MeasureSystem(
        [&](const std::string& q) {
          db2graph::bench::RunProvider(gdbx.get(), q);
        },
        setup.dataset, queries_per_client);
  }
  std::vector<double> janus;
  {
    auto jl = db2graph::bench::MakeJanus(exported);
    janus = MeasureSystem(
        [&](const std::string& q) {
          db2graph::bench::RunProvider(jl.get(), q);
        },
        setup.dataset, queries_per_client);
  }

  std::printf("Figure 6 (%s): throughput, %d concurrent clients "
              "(queries/sec)\n",
              label, kClients);
  std::printf("%-12s %12s %12s %12s %18s\n", "Query", "Db2Graph", "GDB-X",
              "Janus-like", "Db2G vs best-other");
  for (size_t t = 0; t < 4; ++t) {
    std::printf("%-12s %12.0f %12.0f %12.0f %17.2fx\n",
                QueryTypeName(kTypes[t]), db2g[t], native[t], janus[t],
                db2g[t] / std::max(native[t], janus[t]));
  }
  std::printf("\n");
}

// --- Ablation: parallel fan-out off / on --------------------------------

struct AblationResult {
  bool fanout = false;
  double overall_qps = 0;
  uint64_t parallel_batches = 0;
  uint64_t parallel_tasks = 0;
};

// Zipfian rank pick (P(rank r) proportional to 1/r), same log-uniform
// construction Workload uses.
size_t ZipfIndex(std::mt19937_64* rng, size_t n) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  double rank = std::exp(uniform(*rng) * std::log(static_cast<double>(n)));
  size_t r = static_cast<size_t>(rank);
  return r >= n ? n - 1 : r;
}

// Node access: half the picks land in a small hot set, the rest are
// Zipfian over all nodes — the shape LinkBench's skewed request stream
// has (the dataset generator models the same skew on the degree side via
// Config::hot_vertex_fraction).
size_t PickNode(std::mt19937_64* rng, size_t n) {
  std::uniform_int_distribution<int> coin(0, 1);
  size_t hot = std::min<size_t>(200, n);
  if (coin(*rng) == 0) {
    std::uniform_int_distribution<size_t> pick(0, hot - 1);
    return pick(*rng);
  }
  return ZipfIndex(rng, n);
}

// The ablation's query mix. Link operations compile to direct single-table
// edge SQL (the fold of V(id).outE into an id1 lookup), so they do not fan
// out; the shape that does is the untyped point lookup g.V(id) — the
// retrofit case where the caller holds a plain integer id and cannot name
// the vertex type, forcing a consult of all 10 Node_t* tables. The mix
// keeps that lookup dominant and lets typed lookups and link scans ride
// along.
//   60% g.V(id)                  multi-table fan-out
//   15% g.V(id).hasLabel('vtK')  pruned to one table
//   15% g.V(id1).outE('etK').count()
//   10% g.V(id1).outE('etK')
std::string NextAblationQuery(const db2graph::linkbench::Dataset& dataset,
                              std::mt19937_64* rng) {
  std::uniform_int_distribution<int> pick(0, 99);
  int roll = pick(*rng);
  if (roll < 75) {
    const auto& n = dataset.nodes[PickNode(rng, dataset.nodes.size())];
    if (roll < 60) return "g.V(" + std::to_string(n.id) + ")";
    return "g.V(" + std::to_string(n.id) + ").hasLabel('" +
           db2graph::linkbench::Dataset::VertexLabel(n.type) + "')";
  }
  const auto& l = dataset.links[ZipfIndex(rng, dataset.links.size())];
  std::string base = "g.V(" + std::to_string(l.id1) + ").outE('" +
                     db2graph::linkbench::Dataset::EdgeLabel(l.ltype) + "')";
  return roll < 90 ? base + ".count()" : base;
}

// Measures one fan-out setting over a fresh Db2Graph opened on the shared
// database. The query lists are generated once by the caller, so every
// mode answers the identical Zipfian workload.
AblationResult MeasureAblationMode(
    db2graph::sql::Database* db, const db2graph::overlay::OverlayConfig& conf,
    const std::vector<std::vector<std::string>>& per_client, bool fanout) {
  db2graph::core::Db2Graph::Options options;
  options.runtime.parallel_fanout = fanout;
  auto graph = db2graph::core::Db2Graph::Open(db, conf, options);
  if (!graph.ok()) std::abort();
  auto run = [&](const std::string& q) {
    auto out = (*graph)->Execute(q);
    if (!out.ok()) {
      std::fprintf(stderr, "ablation error: %s\n",
                   out.status().ToString().c_str());
      std::abort();
    }
  };

  // Warm up the SQL template cache — every mode gets the identical warm-up
  // stream.
  for (int i = 0; i < 200; ++i) {
    run(per_client[0][i % per_client[0].size()]);
  }

  AblationResult result;
  result.fanout = fanout;
  result.overall_qps = RunClients(run, per_client);
  const auto stats = (*graph)->provider()->stats().Snapshot();
  result.parallel_batches = stats.parallel_batches;
  result.parallel_tasks = stats.parallel_tasks;
  return result;
}

void RunAblation() {
  const int clients = EnvInt("DB2G_FIG6_CLIENTS", 8);
  const int queries_per_client = EnvInt("DB2G_FIG6_QPC", 800);

  // Plain integer ids: no prefix to pin a vertex table, so every untyped
  // g.V(id) fans out across all 10 Node_t* tables — the worst-case lookup
  // the parallel fan-out exists for.
  auto config = db2graph::linkbench::Config::Small();
  std::fprintf(stderr, "[setup] generating LB-small (ablation)...\n");
  auto dataset = db2graph::linkbench::GeneratePartitioned(config);
  db2graph::sql::Database db;
  std::fprintf(stderr, "[setup] loading relational tables...\n");
  if (!db2graph::linkbench::LoadIntoPartitionedDatabase(&db, dataset).ok()) {
    std::abort();
  }
  auto overlay =
      db2graph::linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false);

  // One Zipfian mixed-query list per client, shared by all modes.
  std::vector<std::vector<std::string>> per_client(clients);
  for (int c = 0; c < clients; ++c) {
    std::mt19937_64 rng(5000 + c);
    per_client[c].reserve(queries_per_client);
    for (int i = 0; i < queries_per_client; ++i) {
      per_client[c].push_back(NextAblationQuery(dataset, &rng));
    }
  }

  std::vector<bool> grid;
  const char* fanout_env = std::getenv("DB2G_FIG6_FANOUT");
  for (bool fanout : {false, true}) {
    if (fanout_env != nullptr && *fanout_env != '\0' &&
        fanout != (fanout_env[0] == '1')) {
      continue;
    }
    grid.push_back(fanout);
  }

  std::printf(
      "Ablation (LB-small, partitioned overlay, plain ids, Zipfian "
      "access,\n%d clients, lookup-heavy mix): runtime lookup "
      "optimizations\n",
      clients);
  std::printf("%-12s %12s %12s %12s\n", "Mode", "overall q/s", "batches",
              "tasks");

  std::vector<AblationResult> results;
  for (bool fanout : grid) {
    AblationResult r = MeasureAblationMode(&db, overlay, per_client, fanout);
    std::printf("fanout=%-3s   %12.0f %12llu %12llu\n",
                fanout ? "on" : "off", r.overall_qps,
                (unsigned long long)r.parallel_batches,
                (unsigned long long)r.parallel_tasks);
    results.push_back(r);
  }

  Json doc = Json::Object();
  doc.Set("benchmark", Json::Str("fig6_ablation"));
  doc.Set("dataset", Json::Str("LB-small-partitioned-plain-ids"));
  doc.Set("clients", Json::Number(clients));
  doc.Set("queries_per_client", Json::Number(queries_per_client));
  doc.Set("zipfian", Json::Bool(true));
  doc.Set("mix", Json::Str("60% g.V(id), 15% g.V(id).hasLabel, "
                           "15% outE.count, 10% outE"));
  Json modes = Json::Array();
  const AblationResult* off = nullptr;
  const AblationResult* on = nullptr;
  for (const AblationResult& r : results) {
    Json m = Json::Object();
    m.Set("parallel_fanout", Json::Bool(r.fanout));
    m.Set("overall_qps", Json::Number(r.overall_qps));
    m.Set("parallel_batches",
          Json::Number(static_cast<double>(r.parallel_batches)));
    m.Set("parallel_tasks",
          Json::Number(static_cast<double>(r.parallel_tasks)));
    modes.Append(std::move(m));
    (r.fanout ? on : off) = &r;
  }
  doc.Set("modes", std::move(modes));
  if (off != nullptr && on != nullptr && off->overall_qps > 0) {
    double speedup = on->overall_qps / off->overall_qps;
    doc.Set("speedup_on_vs_off", Json::Number(speedup));
    std::printf("Speedup (fanout on vs off): %.2fx overall\n", speedup);
  }
  std::ofstream out("BENCH_fig6.json");
  out << doc.Dump() << "\n";
  std::printf("Wrote BENCH_fig6.json\n\n");
}

}  // namespace

int main() {
  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "Host has %u hardware thread(s). The paper ran on 32 cores; with "
      "few\ncores the shared-lock vs global-latch separation cannot "
      "appear and\nthroughput mirrors single-client latency (see "
      "EXPERIMENTS.md).\n\n",
      cores);
  if (!EnvFlag("DB2G_FIG6_SKIP_ABLATION")) RunAblation();
  if (!EnvFlag("DB2G_FIG6_SKIP_SYSTEMS")) {
    RunScale(db2graph::linkbench::Config::Small(), "LB-small", 400);
    RunScale(db2graph::linkbench::Config::Large(), "LB-large", 200);
    std::printf(
        "Paper shape: Db2 Graph is the clear throughput winner on every\n"
        "query and both scales (paper: up to 1.6x vs GDB-X, 4.2x vs "
        "JanusGraph).\n");
  }
  return 0;
}
