// ExecConfig resolution through a database: each thread keeps the
// process and session layers resolved and re-reads them only when a
// configuration write moves ExecConfig::Generation(), so every write must
// still reach the next resolution, on any thread, for the right database.

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_config.h"
#include "sql/database.h"

namespace db2graph {
namespace {

TEST(ExecConfigTest, CachedResolutionFollowsEveryConfigWrite) {
  // Each thread keeps its resolution until a configuration write moves
  // the generation; every kind of write must reach the next resolution.
  const ExecConfig saved_default = ExecConfig::ProcessDefault();
  sql::Database db;
  EXPECT_EQ(db.ResolveExecConfig().parallelism(), 1);
  db.SetExecConfig(ExecConfig().parallelism(3));
  EXPECT_EQ(db.ResolveExecConfig().parallelism(), 3);
  ExecConfig::SetProcessDefault(saved_default.vectorized(false));
  EXPECT_FALSE(db.ResolveExecConfig().vectorized());
  EXPECT_EQ(db.ResolveExecConfig().parallelism(), 3);
  ExecConfig::SetProcessDefault(saved_default);
  EXPECT_TRUE(db.ResolveExecConfig().vectorized());

  // Two databases resolved in turn on one thread each see their own
  // session layer.
  sql::Database other;
  EXPECT_EQ(other.ResolveExecConfig().parallelism(), 1);
  EXPECT_EQ(db.ResolveExecConfig().parallelism(), 3);

  // A database constructed where a configured one was destroyed is not
  // mistaken for it.
  std::optional<sql::Database> slot;
  slot.emplace();
  slot->SetExecConfig(ExecConfig().parallelism(5));
  EXPECT_EQ(slot->ResolveExecConfig().parallelism(), 5);
  const sql::Database* address = &*slot;
  slot.reset();
  slot.emplace();
  EXPECT_EQ(&*slot, address);
  EXPECT_EQ(slot->ResolveExecConfig().parallelism(), 1);
}

TEST(ExecConfigTest, ConcurrentResolutionSeesEveryWriteAfterItLands) {
  // Readers keep resolving (so their cached layers are warm) while a
  // writer flips the session layer. Once a reader has observed the stop
  // flag stored after the last write, its next resolution must see that
  // write. Under TSan this is also the race check.
  sql::Database db;
  std::atomic<bool> stop{false};
  std::atomic<int> saw_last{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) db.ResolveExecConfig();
      if (db.ResolveExecConfig().parallelism() == 6) saw_last.fetch_add(1);
    });
  }
  for (int i = 0; i < 200; ++i) {
    db.SetExecConfig(ExecConfig().parallelism(i % 2 == 0 ? 2 : 4));
  }
  db.SetExecConfig(ExecConfig().parallelism(6));
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(saw_last.load(), 3);
}

}  // namespace
}  // namespace db2graph
