// Reproduces Figure 6 of the paper: throughput with 50 clients
// concurrently submitting LinkBench queries, on all three systems at both
// scales. Systems are built and measured one at a time.
//
// Paper shape: Db2 Graph wins everywhere (up to 1.6x vs GDB-X and 4.2x vs
// JanusGraph) because the relational engine's shared-lock read path
// scales with cores, while GDB-X serializes on its cache latch and the
// Janus-like store on its KV latch.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench/bench_util.h"

namespace {

using db2graph::bench::Timer;
using db2graph::linkbench::QueryType;
using db2graph::linkbench::QueryTypeName;
using db2graph::linkbench::Workload;

constexpr int kClients = 50;
constexpr QueryType kTypes[] = {QueryType::kGetNode, QueryType::kCountLinks,
                                QueryType::kGetLink,
                                QueryType::kGetLinkList};

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

}  // namespace

int main() {
  unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "Host has %u hardware thread(s). The paper ran on 32 cores; with "
      "few\ncores the shared-lock vs global-latch separation cannot "
      "appear and\nthroughput mirrors single-client latency (see "
      "EXPERIMENTS.md).\n\n",
      cores);
  RunScale(db2graph::linkbench::Config::Small(), "LB-small", 400);
  RunScale(db2graph::linkbench::Config::Large(), "LB-large", 200);
  std::printf(
      "Paper shape: Db2 Graph is the clear throughput winner on every\n"
      "query and both scales (paper: up to 1.6x vs GDB-X, 4.2x vs "
      "JanusGraph).\n");
  return 0;
}
