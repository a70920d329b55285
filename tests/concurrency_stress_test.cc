// Copyright (c) 2026 The db2graph-repro Authors.
//
// Concurrency stress coverage for multi-table lookups: correct results
// under many concurrent sessionless GremlinService submits, per-thread
// trace isolation, and reads after a write (an UPDATE, and an INSERT of a
// previously absent id) that see it. The
// ConcurrentReadersAndWriter case is the primary TSan target (see README
// "Sanitizers"); the hot-key case runs hash-index run relocation and arena
// compaction under readers.
// SharedSectionStressTest races executions of one prepared SELECT, whose
// compiled section all of them share, against DDL that forces rebuilds.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/db2graph.h"
#include "core/gremlin_service.h"
#include "linkbench/linkbench.h"
#include "linkbench/partitioned.h"

namespace db2graph::core {
namespace {

using gremlin::Traverser;

// Partitioned LinkBench overlay with PLAIN integer ids: every g.V(id) must
// consult all 10 vertex tables (no prefix to pin a table), so each lookup
// runs ten statements under the database's shared read lock.
class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    linkbench::Config config;
    config.num_vertices = 2000;
    dataset_ = linkbench::GeneratePartitioned(config);
    ASSERT_TRUE(linkbench::LoadIntoPartitionedDatabase(&db_, dataset_).ok());
    Result<std::unique_ptr<Db2Graph>> graph = Db2Graph::Open(
        &db_, linkbench::MakePartitionedOverlay(/*prefixed_ids=*/false));
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  Result<std::vector<Traverser>> Run(const std::string& script) {
    return graph_->Execute(script);
  }

  linkbench::Dataset dataset_;
  sql::Database db_;
  std::unique_ptr<Db2Graph> graph_;
};

TEST_F(ConcurrencyStressTest, ConcurrentSubmitsReturnCorrectResults) {
  GremlinService service(graph_.get(),
                         GremlinService::Options::WithWorkers(8));

  constexpr int kRequests = 300;
  std::vector<std::future<GremlinService::Response>> futures;
  std::vector<int64_t> expected_ids;
  futures.reserve(kRequests);
  expected_ids.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    // Heavy repetition over a small id set, so requests for one id run
    // concurrently.
    int64_t id = 1 + (i % 40);
    expected_ids.push_back(id);
    futures.push_back(service.Submit("g.V(" + std::to_string(id) + ")"));
  }
  for (int i = 0; i < kRequests; ++i) {
    GremlinService::Response response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->size(), 1u) << "request " << i;
    EXPECT_EQ((*response)[0].vertex->id, Value(expected_ids[i]));
  }
  EXPECT_EQ(service.completed(), static_cast<uint64_t>(kRequests));
}

TEST_F(ConcurrencyStressTest, ReadAfterUpdateSeesTheWrite) {
  // 42 % 10 == 2, so node 42 lives in Node_t2.
  Result<std::vector<Traverser>> before = Run("g.V(42)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->size(), 1u);

  ASSERT_TRUE(
      db_.Execute("UPDATE Node_t2 SET version = 777 WHERE id = 42").ok());

  Result<std::vector<Traverser>> after = Run("g.V(42)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), 1u);
  const Value* version = (*after)[0].vertex->FindProperty("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(*version, Value(int64_t{777}))
      << "read after write returned a stale vertex";
}

TEST_F(ConcurrencyStressTest, ReadAfterInsertSeesTheNewVertex) {
  // 99999 % 10 == 9, so once inserted the node belongs in Node_t9.
  Result<std::vector<Traverser>> before = Run("g.V(99999)");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->size(), 0u);

  ASSERT_TRUE(
      db_.Execute("INSERT INTO Node_t9 VALUES (99999, 5, 12345, 'late')")
          .ok());

  Result<std::vector<Traverser>> after = Run("g.V(99999)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), 1u)
      << "read after insert missed the new vertex";
  EXPECT_EQ((*after)[0].vertex->id, Value(int64_t{99999}));
}

TEST_F(ConcurrencyStressTest, ConcurrentTracedQueriesDoNotInterleaveSpans) {
  // Each thread runs its own traced query against a distinct vertex id;
  // the installed traces are per-thread (ScopedTrace), so every SQL record
  // must mention only that thread's id.
  // Primary TSan target for the tracing layer.
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Distinct id per thread per iteration; ids do not overlap across
        // threads, so a cross-trace leak is detectable in the SQL text.
        // One shared script with a per-execution binding: every thread
        // executes the same cached plan concurrently.
        int64_t id = 1 + t * 500 + i;
        QueryTrace trace;
        ExecOptions opts;
        opts.trace = &trace;
        opts.bindings = {{"vid", {Value(id)}}};
        Result<std::vector<Traverser>> out = graph_->Execute("g.V(vid)", opts);
        if (!out.ok() || out->size() != 1) {
          failures.fetch_add(1);
          continue;
        }
        // Point lookups render as `"id" IN (<id>)`.
        std::string expect = "(" + std::to_string(id) + ")";
        for (const StepTraceSpan& span : trace.Spans()) {
          for (const SqlTraceRecord& record : span.statements) {
            if (record.sql.find(expect) == std::string::npos) {
              failures.fetch_add(1);
            }
          }
        }
        // The lookup consulted multiple tables; all must land here.
        bool saw_sql = false;
        for (const StepTraceSpan& span : trace.Spans()) {
          saw_sql |= !span.statements.empty();
        }
        if (!saw_sql) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrencyStressTest, ConcurrentReadersAndWriter) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 150;
  constexpr int kWrites = 60;
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, r, &failures] {
      std::mt19937_64 rng(1000 + r);
      for (int i = 0; i < kReadsPerReader; ++i) {
        int64_t id = 1 + static_cast<int64_t>(rng() % 200);
        Result<std::vector<Traverser>> out =
            graph_->Execute("g.V(" + std::to_string(id) + ")");
        if (!out.ok() || out->size() != 1 ||
            (*out)[0].vertex->id != Value(id)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([this, &failures] {
    for (int i = 0; i < kWrites; ++i) {
      int64_t id = 1 + (i % 200);
      std::string table = "Node_t" + std::to_string(id % 10);
      Result<sql::ResultSet> r = db_.Execute(
          "UPDATE " + table + " SET version = " + std::to_string(1000 + i) +
          " WHERE id = " + std::to_string(id));
      if (!r.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

// Prepared readers probe one hot key of a hash index while a writer's
// INSERTs and DELETEs grow that key's run past its capacity (relocation),
// and add and drop short-lived runs of other keys until the arena compacts.
// Hot rows come and go in (x, -x) pairs, one statement per pair, so every
// read must see distinct values that all have their partner.
TEST_F(ConcurrencyStressTest, HotKeyProbesDuringRunRelocation) {
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 200;
  constexpr int kWrites = 300;
  ASSERT_TRUE(db_.ExecuteScript("CREATE TABLE hot (k BIGINT, v BIGINT);"
                                "CREATE INDEX hot_k ON hot (k);"
                                "INSERT INTO hot VALUES (1, 1), (1, -1);")
                  .ok());
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, &failures] {
      Result<sql::PreparedStatement> probe =
          db_.Prepare("SELECT v FROM hot WHERE k = ?");
      if (!probe.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kReadsPerReader; ++i) {
        Result<sql::ResultSet> rs = probe->Execute({Value(int64_t{1})});
        if (!rs.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::set<int64_t> seen;
        for (const Row& row : rs->rows) seen.insert(row[0].as_int());
        bool consistent = seen.size() == rs->rows.size() && !seen.empty();
        for (int64_t v : seen) consistent = consistent && seen.count(-v) == 1;
        if (!consistent) failures.fetch_add(1);
      }
    });
  }
  std::thread writer([this, &failures] {
    auto exec = [&](const std::string& sql) {
      if (!db_.Execute(sql).ok()) failures.fetch_add(1);
    };
    for (int i = 2; i < kWrites; ++i) {
      const std::string x = std::to_string(i);
      const std::string cold = std::to_string(1000 + i);
      exec("INSERT INTO hot VALUES (1, " + x + "), (" + cold + ", 0), (1, -" +
           x + "), (" + cold + ", 0)");
      exec("DELETE FROM hot WHERE k = " + std::to_string(999 + i));
      // Every third round drops an older pair from the middle of the run;
      // the pair (1, -1) stays, so no read is empty.
      if (i % 3 == 0) {
        const std::string old = std::to_string(1 + i / 2);
        exec("DELETE FROM hot WHERE k = 1 AND (v = " + old + " OR v = -" +
             old + ")");
      }
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

// Four threads share one prepared handle, and so its compiled section:
// two execute it materialized, two streaming. A fifth thread creates,
// indexes and drops other tables meanwhile; every DDL moves ddl_version,
// so after each one the readers race to rebuild and publish the shared
// section while the others look it up.
TEST(SharedSectionStressTest, SharedHandleAcrossConcurrentDdl) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 300;
  constexpr int kDdlRounds = 40;
  constexpr int64_t kRows = 64;
  sql::Database db;
  std::string load = "CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT);"
                     "INSERT INTO kv VALUES (0, 0)";
  for (int64_t k = 1; k < kRows; ++k) {
    load += ", (" + std::to_string(k) + ", " + std::to_string(k * 10) + ")";
  }
  ASSERT_TRUE(db.ExecuteScript(load).ok());
  Result<sql::PreparedStatement> probe =
      db.Prepare("SELECT v FROM kv WHERE k = ?");
  Result<sql::PreparedStatement> count =
      db.Prepare("SELECT COUNT(*) FROM kv WHERE v >= ?");
  ASSERT_TRUE(probe.ok() && count.ok());
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const bool streaming = r % 2 == 1;
      for (int i = 0; i < kReadsPerReader; ++i) {
        const int64_t k = (r * 7 + i) % kRows;
        const std::vector<Value> key = {Value(k)};
        std::vector<Row> rows;
        if (streaming) {
          Result<std::unique_ptr<sql::RowStream>> stream =
              probe->ExecuteStreaming(key);
          if (!stream.ok()) {
            failures.fetch_add(1);
            continue;
          }
          sql::RowBlock block;
          while ((*stream)->Next(&block)) {
            for (Row& row : block.rows) rows.push_back(std::move(row));
          }
          if (!(*stream)->status().ok()) failures.fetch_add(1);
        } else {
          Result<sql::ResultSet> rs = probe->Execute(key);
          if (!rs.ok()) {
            failures.fetch_add(1);
            continue;
          }
          rows = std::move(rs->rows);
        }
        if (rows.size() != 1 || rows[0][0] != Value(k * 10)) {
          failures.fetch_add(1);
        }
        Result<sql::ResultSet> counted = count->Execute({Value(k * 10)});
        if (!counted.ok() || counted->rows.size() != 1 ||
            counted->rows[0][0] != Value(kRows - k)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread ddl([&] {
    for (int i = 0; i < kDdlRounds; ++i) {
      const std::string name = "other" + std::to_string(i);
      Status st = db.ExecuteScript(
          "CREATE TABLE " + name + " (a BIGINT, b BIGINT);"
          "INSERT INTO " + name + " VALUES (1, 2);"
          "CREATE INDEX " + name + "_a ON " + name + " (a);"
          "DROP TABLE " + name);
      if (!st.ok()) failures.fetch_add(1);
    }
  });
  for (std::thread& t : readers) t.join();
  ddl.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace db2graph::core
