// Copyright (c) 2026 The db2graph-repro Authors.
//
// Workload governor coverage:
//
//  * deadlines — a timeout_ms=50 full traversal over 100k vertices fails
//    with kTimeout well under the 100 ms acceptance bound, including when
//    the deadline expires inside a barrier drain (order / groupCount /
//    both());
//  * result-row and memory budgets latch kResourceExhausted;
//  * ExecConfig limit resolution against process defaults (unset =
//    inherit, negative = explicitly unlimited);
//  * observability — the reason column in sysmon.query_log and its
//    slow-query entries, the governor.* counters, sysmon.active_queries
//    and KillQuery;
//  * GremlinService admission control (bounded queue sheds with
//    kOverloaded under 4x-concurrency load) and Shutdown() cancelling
//    in-flight queries through the shared token;
//  * cancellation racing the parallel multi-table fan-out (a TSan
//    target, so the suite name matches the CI stress regex).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_config.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "common/workload_governor.h"
#include "core/db2graph.h"
#include "core/gremlin_service.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

uint64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->load();
}

// ------------------------------------------------------------------
// Limit resolution: ExecConfig is the one place a limit is set.
// ------------------------------------------------------------------

TEST(ExecConfigTest, GovernorLimitsResolveThroughTheLayers) {
  // A builder given 0 leaves a limit unset: it overlays nothing.
  const ExecConfig capped = ExecConfig().max_result_rows(100);
  EXPECT_EQ(ExecConfig().max_result_rows(0).max_result_rows(), 0);
  EXPECT_EQ(capped.OverlaidBy(ExecConfig().max_result_rows(0))
                .max_result_rows(),
            100);
  // A negative limit is unlimited and reads back as no limit.
  EXPECT_EQ(capped.OverlaidBy(ExecConfig().max_result_rows(-1))
                .max_result_rows(),
            0);

  linkbench::Config config;
  config.num_vertices = 2000;
  config.edges_per_vertex = 0;
  linkbench::Dataset dataset = linkbench::Generate(config);
  sql::Database db;
  ASSERT_TRUE(linkbench::LoadIntoDatabase(&db, dataset).ok());
  auto status_of = [](Db2Graph* graph, const ExecConfig& call) {
    ExecOptions options;
    options.config = call;
    return graph->Execute("g.V()", options).status().code();
  };

  // A process default set through SetProcessDefault applies.
  Result<std::unique_ptr<Db2Graph>> plain =
      Db2Graph::Open(&db, linkbench::MakeOverlay());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(status_of(plain->get(), ExecConfig()), StatusCode::kOk);
  const ExecConfig saved = ExecConfig::ProcessDefault();
  ExecConfig::SetProcessDefault(saved.max_result_rows(100));
  EXPECT_EQ(status_of(plain->get(), ExecConfig()),
            StatusCode::kResourceExhausted);
  ExecConfig::SetProcessDefault(saved);

  // A graph-level Options::exec limit applies; a per-call builder given 0
  // leaves it in force, and a per-call -1 opts this call out.
  Db2Graph::Options options;
  options.exec = capped;
  Result<std::unique_ptr<Db2Graph>> governed =
      Db2Graph::Open(&db, linkbench::MakeOverlay(), options);
  ASSERT_TRUE(governed.ok());
  EXPECT_EQ(status_of(governed->get(), ExecConfig()),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(status_of(governed->get(), ExecConfig().max_result_rows(0)),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(status_of(governed->get(), ExecConfig().max_result_rows(-1)),
            StatusCode::kOk);
}

// ------------------------------------------------------------------
// Deadlines over a large single-table graph.
// ------------------------------------------------------------------

// 100k vertices with edges: heavy enough that a full expansion runs for
// hundreds of milliseconds, so a 50 ms deadline reliably interrupts it.
class GovernorDeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    linkbench::Config config;
    config.num_vertices = 100000;
    config.edges_per_vertex = 2.0;
    dataset_ = new linkbench::Dataset(linkbench::Generate(config));
    db_ = new sql::Database();
    ASSERT_TRUE(linkbench::LoadIntoDatabase(db_, *dataset_).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void SetUp() override {
    Result<std::unique_ptr<Db2Graph>> graph =
        Db2Graph::Open(db_, linkbench::MakeOverlay());
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  static linkbench::Dataset* dataset_;
  static sql::Database* db_;
  std::unique_ptr<Db2Graph> graph_;
};

linkbench::Dataset* GovernorDeadlineTest::dataset_ = nullptr;
sql::Database* GovernorDeadlineTest::db_ = nullptr;

// The acceptance test: deadline 50 ms, full two-hop expansion, kTimeout
// in well under 100 ms with the fan-out joined (Execute returning at all
// proves the join — producers still running would crash on teardown).
TEST_F(GovernorDeadlineTest, FullTraversalTimesOutUnder100ms) {
  uint64_t timeouts_before = CounterValue(governor::kTimeoutsCounter);
  ExecOptions options;
  options.config = ExecConfig().timeout_ms(50);
  auto start = std::chrono::steady_clock::now();
  Result<std::vector<Traverser>> out =
      graph_->Execute("g.V().out().out().count()", options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTimeout)
      << out.status().ToString();
  EXPECT_LT(elapsed.count(), 100) << "cooperative checks too coarse";
  EXPECT_GE(CounterValue(governor::kTimeoutsCounter), timeouts_before + 1);
}

// The deadline must also fire inside barrier drains, which buffer their
// whole upstream before emitting.
TEST_F(GovernorDeadlineTest, TimeoutInterruptsBarrierSteps) {
  // Each barrier sits on an expensive expansion so the upstream alone
  // outlives the deadline; the drain must observe it mid-buffer.
  for (const char* script :
       {"g.V().out().order().by('vp1').limit(5)",
        "g.V().out().values('vp1').groupCount()",
        "g.V().both().count()"}) {
    ExecOptions options;
    options.config = ExecConfig().timeout_ms(30);
    auto start = std::chrono::steady_clock::now();
    Result<std::vector<Traverser>> out = graph_->Execute(script, options);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_FALSE(out.ok()) << script;
    EXPECT_EQ(out.status().code(), StatusCode::kTimeout)
        << script << ": " << out.status().ToString();
    EXPECT_LT(elapsed.count(), 100) << script;
  }
}

TEST_F(GovernorDeadlineTest, ResultRowBudgetLatchesResourceExhausted) {
  ExecOptions options;
  options.config = ExecConfig().max_result_rows(1000);
  Result<std::vector<Traverser>> out = graph_->Execute("g.V()", options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
      << out.status().ToString();
}

TEST_F(GovernorDeadlineTest, MemoryBudgetLatchesResourceExhausted) {
  uint64_t before = CounterValue(governor::kResourceExhaustedCounter);
  ExecOptions options;
  options.config =
      ExecConfig().max_memory_bytes(64 * 1024);  // far under 100k traversers
  // Plain g.V() materializes every vertex (count() would push the
  // aggregate into SQL and retain nothing).
  Result<std::vector<Traverser>> out = graph_->Execute("g.V()", options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
      << out.status().ToString();
  EXPECT_GE(CounterValue(governor::kResourceExhaustedCounter), before + 1);
}

TEST_F(GovernorDeadlineTest, GenerousLimitsDoNotPerturbResults) {
  Result<std::vector<Traverser>> plain = graph_->Execute("g.V().count()");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExecOptions options;
  options.config = ExecConfig()
                       .timeout_ms(60000)
                       .max_result_rows(10000000)
                       .max_memory_bytes(int64_t{4} << 30);
  Result<std::vector<Traverser>> governed =
      graph_->Execute("g.V().count()", options);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ((*plain)[0].ToString(), (*governed)[0].ToString());
}

TEST_F(GovernorDeadlineTest, ProcessDefaultsApplyAndPerCallOverrides) {
  const ExecConfig saved = ExecConfig::ProcessDefault();
  ExecConfig::SetProcessDefault(saved.max_result_rows(1000));
  // An unset limit (the ExecOptions default) inherits the process
  // default...
  Result<std::vector<Traverser>> inherited = graph_->Execute("g.V()");
  ASSERT_FALSE(inherited.ok());
  EXPECT_EQ(inherited.status().code(), StatusCode::kResourceExhausted);
  // ...and a negative field opts this call out of it.
  ExecOptions unlimited;
  unlimited.config = ExecConfig().max_result_rows(-1);
  Result<std::vector<Traverser>> out =
      graph_->Execute("g.V().count()", unlimited);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  ExecConfig::SetProcessDefault(saved);
}

TEST_F(GovernorDeadlineTest, ExternalCancelTokenStopsExecution) {
  uint64_t cancels_before = CounterValue(governor::kCancelsCounter);
  governor::CancelToken token = governor::CancelToken::Make();
  ExecOptions options;
  options.cancel_token = token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.Cancel("client went away");
  });
  Result<std::vector<Traverser>> out =
      graph_->Execute("g.V().out().out().count()", options);
  canceller.join();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("client went away"),
            std::string::npos);
  EXPECT_GE(CounterValue(governor::kCancelsCounter), cancels_before + 1);
}

// ------------------------------------------------------------------
// Observability: reason columns, active_queries, KillQuery.
// ------------------------------------------------------------------

TEST_F(GovernorDeadlineTest, QueryLogRecordsTerminationReason) {
  QueryLog::Global().SetEnabled(true);
  QueryLog::Global().Clear();
  ExecOptions options;
  options.config = ExecConfig().timeout_ms(30);
  Result<std::vector<Traverser>> out =
      graph_->Execute("g.V().out().out().count()", options);
  ASSERT_FALSE(out.ok());
  ASSERT_EQ(out.status().code(), StatusCode::kTimeout);

  Result<sql::ResultSet> rs = db_->Execute(
      "SELECT reason, error FROM sysmon.query_log "
      "WHERE layer = 'gremlin' AND reason = 'timeout'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_GE(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][1], Value(true));
  QueryLog::Global().SetEnabled(false);
  QueryLog::Global().Clear();
}

TEST_F(GovernorDeadlineTest, SlowQueriesRecordTerminationReason) {
  const bool was_enabled = QueryLog::Global().enabled();
  QueryLog::Global().SetEnabled(true);
  QueryLog::Global().SetThresholdMs(1);
  QueryLog::Global().Clear();
  ExecOptions options;
  options.config = ExecConfig().timeout_ms(30);
  Result<std::vector<Traverser>> out =
      graph_->Execute("g.V().out().out().count()", options);
  ASSERT_FALSE(out.ok());
  bool found = false;
  for (const QueryLog::Entry& e : QueryLog::Global().Entries()) {
    if (!e.trace_json.empty() && e.reason == "timeout") found = true;
  }
  EXPECT_TRUE(found);
  QueryLog::Global().SetThresholdMs(0);
  QueryLog::Global().SetEnabled(was_enabled);
  QueryLog::Global().Clear();
}

TEST_F(GovernorDeadlineTest, ActiveQueriesVisibleAndKillable) {
  ExecOptions options;
  // Governed, but nowhere near expiring.
  options.config = ExecConfig().timeout_ms(60000);
  auto future = std::async(std::launch::async, [&] {
    return graph_->Execute("g.V().out().out().count()", options);
  });

  // Find the running query in the registry (it may take a moment to
  // register; it stays until the traversal finishes or is killed).
  uint64_t id = 0;
  for (int i = 0; i < 2000 && id == 0; ++i) {
    for (const auto& q : governor::ActiveQueryRegistry::Global().Snapshot()) {
      if (q->script().find("out()") != std::string::npos) id = q->id();
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u) << "query never appeared in sysmon.active_queries";

  // The virtual table surfaces the same query while it runs.
  Result<sql::ResultSet> rs = db_->Execute(
      "SELECT id, script, timeout_ms FROM sysmon.active_queries");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  bool visible = false;
  for (const Row& row : rs->rows) {
    if (row[0].as_int() == static_cast<int64_t>(id)) {
      visible = true;
      EXPECT_EQ(row[2].as_int(), 60000);
    }
  }
  EXPECT_TRUE(visible);

  ASSERT_TRUE(Db2Graph::KillQuery(id, "test kill"));
  Result<std::vector<Traverser>> out = future.get();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("test kill"), std::string::npos);
  // Gone from the registry once unwound.
  EXPECT_FALSE(Db2Graph::KillQuery(id));
}

// ------------------------------------------------------------------
// GremlinService: admission control and shutdown cancellation.
// ------------------------------------------------------------------

TEST_F(GovernorDeadlineTest, ServiceShedsUnderOverload) {
  GremlinService::Options service_options;
  service_options.workers = 2;
  service_options.max_queue_depth = 4;
  GremlinService service(graph_.get(), service_options);

  // 4x the service's total capacity (2 executing + 4 queued): the surplus
  // must fail fast with kOverloaded, not park unboundedly.
  uint64_t shed_before = CounterValue(governor::kShedCounter);
  std::vector<std::future<GremlinService::Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(service.Submit("g.V().out().count()"));
  }
  size_t ok = 0;
  size_t overloaded = 0;
  for (auto& f : futures) {
    GremlinService::Response r = f.get();
    if (r.ok()) {
      ++ok;
    } else if (r.status().code() == StatusCode::kOverloaded) {
      ++overloaded;
      EXPECT_NE(r.status().message().find("retry"), std::string::npos);
    } else {
      ADD_FAILURE() << r.status().ToString();
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_EQ(service.shed(), overloaded);
  EXPECT_GE(CounterValue(governor::kShedCounter), shed_before + overloaded);
  service.Shutdown();
}

TEST_F(GovernorDeadlineTest, ShutdownCancelsInFlightQueries) {
  GremlinService::Options service_options;
  service_options.workers = 1;
  GremlinService service(graph_.get(), service_options);
  std::future<GremlinService::Response> slow =
      service.Submit("g.V().out().out().out().count()");
  // Let the worker pick it up, then shut down while it runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto start = std::chrono::steady_clock::now();
  service.Shutdown();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  GremlinService::Response r = slow.get();
  ASSERT_FALSE(r.ok());
  // kCancelled when the worker had started it, kUnavailable in the rare
  // schedule where shutdown won the race to the queue.
  EXPECT_TRUE(r.status().code() == StatusCode::kCancelled ||
              r.status().code() == StatusCode::kUnavailable)
      << r.status().ToString();
  // Cooperative cancellation means shutdown never waits out the full
  // three-hop expansion (which runs for many seconds).
  EXPECT_LT(elapsed.count(), 2000);
}

TEST_F(GovernorDeadlineTest, ServiceKillQueryCancelsOneRequest) {
  GremlinService::Options service_options;
  service_options.workers = 1;
  GremlinService service(graph_.get(), service_options);
  std::future<GremlinService::Response> slow =
      service.Submit("g.V().out().out().out().count()");
  uint64_t id = 0;
  for (int i = 0; i < 2000 && id == 0; ++i) {
    for (const auto& q : governor::ActiveQueryRegistry::Global().Snapshot()) {
      if (q->script().find("out().out().out()") != std::string::npos) {
        id = q->id();
      }
    }
    if (id == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(service.KillQuery(id));
  GremlinService::Response r = slow.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();
  // The service itself is healthy and keeps serving.
  GremlinService::Response next = service.Submit("g.V().limit(1)").get();
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  service.Shutdown();
}

// ------------------------------------------------------------------
// Cancellation vs the parallel fan-out (TSan stress; the suite name
// matches the CI tsan-stress regex).
// ------------------------------------------------------------------

class GovernorCancellationStressTest : public ::testing::Test {
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

// A cancel fired from another thread races the 10-table producer fan-out:
// producers must observe the token (or the queue cancel) and join without
// a leak or a data race, whatever the interleaving.
TEST_F(GovernorCancellationStressTest, CancelRacesParallelProducers) {
  for (int iter = 0; iter < 50; ++iter) {
    governor::CancelToken token = governor::CancelToken::Make();
    ExecOptions options;
    options.cancel_token = token;
    std::thread canceller([&token, iter] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * iter));
      token.Cancel("stress cancel");
    });
    Result<std::vector<Traverser>> out = graph_->Execute("g.V()", options);
    canceller.join();
    // Either the query won the race or it observed the cancel — both are
    // valid; crashes, races, and stuck producers are what TSan hunts.
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
          << out.status().ToString();
    }
  }
}

// Tight deadlines expire while producers are mid-table; every outcome
// must be kTimeout or a complete result, with the fan-out joined.
TEST_F(GovernorCancellationStressTest, DeadlineRacesParallelProducers) {
  for (int iter = 0; iter < 50; ++iter) {
    ExecOptions options;
    options.config = ExecConfig().timeout_ms(1 + iter % 5);
    Result<std::vector<Traverser>> out =
        graph_->Execute("g.V().both().count()", options);
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kTimeout)
          << out.status().ToString();
    }
  }
}

}  // namespace
}  // namespace db2graph::core
