// DML coverage: statements target their rows through the same index
// access path SELECT uses (equivalence against an unindexed twin table,
// inside and outside transactions), UPDATE enforces unique indexes and
// column types like INSERT does, multi-row INSERT is atomic, a batch
// insert equals a loop of one-row inserts, and hash-index posting lists
// keep their order and accounting across erases (including a seeded
// differential run against a reference map).

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sql/database.h"
#include "sql/table.h"

namespace db2graph::sql {
namespace {

// ---------------------------------------------------------------------
// Index posting lists
// ---------------------------------------------------------------------

std::vector<RowId> LookupAll(const Index& index, const Row& key) {
  Index::Run run = index.Find(key.data(), key.size());
  std::vector<RowId> out(run.data, run.data + run.size);
  return out;
}

TEST(IndexTest, EraseOfMiddlePostingKeepsOthersInOrder) {
  Index index("i", {0}, /*unique=*/false);
  const Row key = {Value(int64_t{7})};
  for (RowId rid : {10, 11, 12, 13}) index.Insert(key, rid);
  index.Erase(key, 11);
  EXPECT_EQ(LookupAll(index, key), (std::vector<RowId>{10, 12, 13}));
  index.Erase(key, 13);
  index.Insert(key, 11);
  EXPECT_EQ(LookupAll(index, key), (std::vector<RowId>{10, 12, 11}));
}

TEST(IndexTest, DuplicateKeysShareOnePostingList) {
  Index index("i", {0, 1}, /*unique=*/false);
  const Row a = {Value(int64_t{1}), Value("x")};
  const Row b = {Value(int64_t{1}), Value("y")};
  index.Insert(a, 5);
  index.Insert(b, 6);
  index.Insert(a, 7);
  EXPECT_EQ(LookupAll(index, a), (std::vector<RowId>{5, 7}));
  EXPECT_EQ(LookupAll(index, b), (std::vector<RowId>{6}));
  EXPECT_EQ(index.entry_count(), 3u);
  // A double key equal to the stored int finds the same postings.
  EXPECT_EQ(LookupAll(index, {Value(1.0), Value("x")}),
            (std::vector<RowId>{5, 7}));
}

TEST(IndexTest, EntryCountFollowsErases) {
  Index index("i", {0}, /*unique=*/false);
  for (RowId rid = 0; rid < 6; ++rid) {
    index.Insert({Value(static_cast<int64_t>(rid % 2))}, rid);
  }
  EXPECT_EQ(index.entry_count(), 6u);
  index.Erase({Value(int64_t{0})}, 2);
  EXPECT_EQ(index.entry_count(), 5u);
  // Erasing a posting that is not there changes nothing.
  index.Erase({Value(int64_t{0})}, 3);
  index.Erase({Value(int64_t{9})}, 0);
  EXPECT_EQ(index.entry_count(), 5u);
}

TEST(IndexTest, KeyDisappearsWithItsLastPosting) {
  Index index("i", {0}, /*unique=*/true);
  const Row key = {Value("k")};
  index.Insert(key, 3);
  index.Insert(key, 4);
  index.Erase(key, 3);
  EXPECT_TRUE(index.Contains(key));
  index.Erase(key, 4);
  EXPECT_FALSE(index.Contains(key));
  EXPECT_TRUE(LookupAll(index, key).empty());
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(IndexTest, ApproxBytesShrinksAfterErases) {
  Index index("i", {0}, /*unique=*/false);
  for (RowId rid = 0; rid < 200; ++rid) {
    index.Insert({Value("key-" + std::to_string(rid))}, rid);
  }
  size_t full = index.ApproxBytes();
  for (RowId rid = 0; rid < 150; ++rid) {
    index.Erase({Value("key-" + std::to_string(rid))}, rid);
  }
  EXPECT_LT(index.ApproxBytes(), full);
}

// ---------------------------------------------------------------------
// Differential index model
// ---------------------------------------------------------------------

}  // namespace

// Reads and steers Index internals the public surface does not expose.
struct IndexTestPeer {
  static void SetHash(Index* index, uint64_t (*hash)(std::string_view)) {
    index->hash_override_ = hash;
  }
  static size_t ArenaDead(const Index& index) { return index.arena_dead_; }
  static size_t KeysDead(const Index& index) { return index.keys_dead_; }
};

namespace {

// Folds every hashed key onto one of four words, so most distinct keys
// share a 64-bit hash with others.
uint64_t CollidingHash(std::string_view bytes) {
  return bytes.size() % 4;
}

// The reference: each key's postings in insertion order, keys compared by
// Value order (so 1 and 1.0 are one key, as in the index).
using IndexModel = std::map<Row, std::vector<RowId>>;

struct ModelEvents {
  bool relocated = false;      // a run moved and left dead arena space
  bool compacted = false;      // dead arena space was reclaimed
  bool keys_compacted = false;  // dead key bytes were reclaimed
  bool last_posting_removed = false;
  size_t max_run = 0;
};

void ExpectIndexMatches(const Index& index, const IndexModel& model,
                        const std::vector<Row>& probes) {
  size_t entries = 0;
  for (const auto& [key, postings] : model) {
    entries += postings.size();
    ASSERT_EQ(LookupAll(index, key), postings);
    ASSERT_TRUE(index.Contains(key));
  }
  ASSERT_EQ(index.entry_count(), entries);
  ASSERT_EQ(index.key_count(), model.size());
  for (const Row& probe : probes) {
    auto it = model.find(probe);
    const std::vector<RowId> want =
        it == model.end() ? std::vector<RowId>{} : it->second;
    ASSERT_EQ(LookupAll(index, probe), want);
    ASSERT_EQ(index.Contains(probe), it != model.end());
  }
}

// Random inserts and erases drawn from `key_of`, then a drain of every
// posting, checked against the model throughout.
template <typename KeyOf>
ModelEvents RunIndexModel(Index* index, uint64_t seed, int steps,
                          const KeyOf& key_of,
                          const std::vector<Row>& probes) {
  std::mt19937_64 rng(seed);
  IndexModel model;
  std::vector<std::pair<Row, RowId>> live;
  ModelEvents events;
  RowId next = 0;
  auto observe = [&](size_t dead_before, size_t keys_dead_before) {
    size_t dead = IndexTestPeer::ArenaDead(*index);
    events.relocated |= dead > dead_before;
    events.compacted |= dead < dead_before;
    events.keys_compacted |= IndexTestPeer::KeysDead(*index) < keys_dead_before;
  };
  auto erase_at = [&](size_t i) {
    auto [key, rid] = live[i];
    live[i] = live.back();
    live.pop_back();
    size_t dead = IndexTestPeer::ArenaDead(*index);
    size_t keys_dead = IndexTestPeer::KeysDead(*index);
    index->Erase(key, rid);
    observe(dead, keys_dead);
    std::vector<RowId>& postings = model[key];
    postings.erase(std::find(postings.begin(), postings.end(), rid));
    if (postings.empty()) {
      model.erase(key);
      events.last_posting_removed = true;
      EXPECT_FALSE(index->Contains(key));
    }
  };
  for (int step = 0; step < steps; ++step) {
    uint64_t op = rng() % 10;
    if (op < 7 || live.empty()) {
      Row key = key_of(rng);
      size_t dead = IndexTestPeer::ArenaDead(*index);
      size_t keys_dead = IndexTestPeer::KeysDead(*index);
      index->Insert(key, next);
      observe(dead, keys_dead);
      model[key].push_back(next);
      events.max_run = std::max(events.max_run, model[key].size());
      live.emplace_back(key, next++);
    } else if (op < 9) {
      erase_at(rng() % live.size());
    } else {
      // Erasing a posting that is not there changes nothing.
      index->Erase(key_of(rng), next + 1000);
    }
    if (step % 251 == 0) ExpectIndexMatches(*index, model, probes);
  }
  ExpectIndexMatches(*index, model, probes);
  while (!live.empty()) {
    erase_at(rng() % live.size());
    if (live.size() % 509 == 0) ExpectIndexMatches(*index, model, probes);
  }
  ExpectIndexMatches(*index, model, probes);
  EXPECT_EQ(index->entry_count(), 0u);
  return events;
}

TEST(IndexModelTest, BigintKeysWithHotKeyNullsAndMixedProbes) {
  Index index("i", {0}, /*unique=*/false, {ColumnType::kInt});
  // 35% one hot key, 10% NULL, the rest spread over 400 keys.
  auto key_of = [](std::mt19937_64& rng) -> Row {
    uint64_t r = rng() % 100;
    if (r < 35) return {Value(int64_t{1})};
    if (r < 45) return {Value::Null()};
    return {Value(static_cast<int64_t>(rng() % 400) - 50)};
  };
  const std::vector<Row> probes = {
      {Value(int64_t{1})}, {Value(1.0)},  {Value(1.5)},
      {Value("1")},        {Value(true)}, {Value::Null()},
      {Value(-7.0)},       {Value(int64_t{1} << 40)}, {Value(1e300)}};
  ModelEvents events = RunIndexModel(&index, 11, 20000, key_of, probes);
  EXPECT_GT(events.max_run, 2000u);
  EXPECT_TRUE(events.relocated);
  EXPECT_TRUE(events.compacted);
  EXPECT_TRUE(events.last_posting_removed);
}

TEST(IndexModelTest, HashedKeysWithForcedCollisions) {
  Index index("i", {0, 1}, /*unique=*/false);
  IndexTestPeer::SetHash(&index, CollidingHash);
  // Two-column string keys (every one shares its hash with many others),
  // NULL parts, and int parts probed as doubles.
  auto key_of = [](std::mt19937_64& rng) -> Row {
    uint64_t r = rng() % 100;
    if (r < 30) return {Value("hot"), Value("key")};
    if (r < 40) return {Value::Null(), Value("n" + std::to_string(rng() % 5))};
    if (r < 60) {
      return {Value(static_cast<int64_t>(rng() % 20)), Value("i")};
    }
    return {Value("a" + std::to_string(rng() % 60)),
            Value("b" + std::to_string(rng() % 7))};
  };
  const std::vector<Row> probes = {
      {Value("hot"), Value("key")}, {Value("hotk"), Value("ey")},
      {Value(3.0), Value("i")},     {Value(3.5), Value("i")},
      {Value("3"), Value("i")},     {Value::Null(), Value("n1")},
      {Value("hot")},               {Value("a1"), Value("b1"), Value("x")}};
  ModelEvents events = RunIndexModel(&index, 12, 20000, key_of, probes);
  EXPECT_GT(events.max_run, 2000u);
  EXPECT_TRUE(events.relocated);
  EXPECT_TRUE(events.compacted);
  EXPECT_TRUE(events.keys_compacted);
  EXPECT_TRUE(events.last_posting_removed);
}

TEST(IndexModelTest, BatchInsertEqualsOneRowInserts) {
  // Full table rows (key columns 1 and 2); enough rows to take the
  // counting pass, appended to an index that already holds postings.
  std::mt19937_64 rng(13);
  std::vector<Row> rows;
  std::vector<RowId> rids;
  for (RowId rid = 0; rid < 3000; ++rid) {
    uint64_t r = rng() % 10;
    Value a = r == 0 ? Value::Null() : Value(static_cast<int64_t>(r % 4));
    rows.push_back({Value("pad"), a, Value("s" + std::to_string(rng() % 3))});
    rids.push_back(rid * 7 % 3001);
  }
  for (const std::vector<size_t>& cols :
       {std::vector<size_t>{1}, std::vector<size_t>{1, 2}}) {
    const std::vector<ColumnType> types =
        cols.size() == 1 ? std::vector<ColumnType>{ColumnType::kInt}
                         : std::vector<ColumnType>{};
    Index batch("b", cols, false, types);
    Index single("s", cols, false, types);
    batch.InsertRows(rows.data(), rids.data(), 100);
    for (size_t i = 0; i < 100; ++i) {
      single.InsertRows(&rows[i], &rids[i], 1);
    }
    batch.InsertRows(rows.data() + 100, rids.data() + 100, rows.size() - 100);
    for (size_t i = 100; i < rows.size(); ++i) {
      single.InsertRows(&rows[i], &rids[i], 1);
    }
    EXPECT_EQ(batch.entry_count(), single.entry_count());
    EXPECT_EQ(batch.key_count(), single.key_count());
    for (const Row& row : rows) {
      Row key;
      for (size_t c : cols) key.push_back(row[c]);
      ASSERT_EQ(LookupAll(batch, key), LookupAll(single, key));
    }
  }
}

// ---------------------------------------------------------------------
// UPDATE constraint checks
// ---------------------------------------------------------------------

class DmlTest : public ::testing::Test {
 protected:
  ResultSet Run(const std::string& sql) {
    Result<ResultSet> rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
    return rs.ok() ? *rs : ResultSet{};
  }

  StatusCode Code(const std::string& sql) {
    return db_.Execute(sql).status().code();
  }

  std::vector<Row> Rows(const std::string& sql) { return Run(sql).rows; }

  Database db_;
};

TEST_F(DmlTest, UpdateRejectsDuplicateUniqueKey) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(8));
      INSERT INTO t VALUES (1, 'a'), (2, 'b');
    )sql")
                  .ok());
  EXPECT_EQ(Code("UPDATE t SET id = 1 WHERE id = 2"),
            StatusCode::kConstraintViolation);
  const std::vector<Row> original = {{Value(int64_t{1}), Value("a")},
                                     {Value(int64_t{2}), Value("b")}};
  EXPECT_EQ(Rows("SELECT id, v FROM t ORDER BY id"), original);
  EXPECT_EQ(Rows("SELECT v FROM t WHERE id = 2"),
            (std::vector<Row>{{Value("b")}}));
  // A row keeping its own key does not collide with itself.
  EXPECT_EQ(Run("UPDATE t SET v = 'c' WHERE id = 1").affected, 1);
  EXPECT_EQ(Run("UPDATE t SET id = 1 WHERE id = 1").affected, 1);
  // Moving a key to a free value is fine.
  EXPECT_EQ(Run("UPDATE t SET id = 5 WHERE id = 1").affected, 1);
  EXPECT_EQ(Rows("SELECT v FROM t WHERE id = 5"),
            (std::vector<Row>{{Value("c")}}));
  EXPECT_TRUE(Rows("SELECT v FROM t WHERE id = 1").empty());
}

TEST_F(DmlTest, RollbackRestoresAroundRejectedUpdate) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(8));
      INSERT INTO t VALUES (1, 'a'), (2, 'b');
    )sql")
                  .ok());
  Run("BEGIN");
  EXPECT_EQ(Run("UPDATE t SET id = 3 WHERE id = 2").affected, 1);
  EXPECT_EQ(Code("UPDATE t SET id = 1 WHERE id = 3"),
            StatusCode::kConstraintViolation);
  // Key 2 is free again inside the transaction.
  EXPECT_EQ(Run("INSERT INTO t VALUES (2, 'n')").affected, 1);
  Run("ROLLBACK");
  EXPECT_EQ(Rows("SELECT id, v FROM t ORDER BY id"),
            (std::vector<Row>{{Value(int64_t{1}), Value("a")},
                              {Value(int64_t{2}), Value("b")}}));
  EXPECT_EQ(Rows("SELECT v FROM t WHERE id = 2"),
            (std::vector<Row>{{Value("b")}}));
  EXPECT_TRUE(Rows("SELECT v FROM t WHERE id = 3").empty());
  EXPECT_EQ(Code("INSERT INTO t VALUES (2, 'x')"),
            StatusCode::kConstraintViolation);
}

TEST_F(DmlTest, UpdateCoercesAndChecksColumnTypes) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE f (id BIGINT PRIMARY KEY, score DOUBLE NOT NULL);
      INSERT INTO f VALUES (1, 0.5);
    )sql")
                  .ok());
  EXPECT_EQ(Run("UPDATE f SET score = 2 WHERE id = 1").affected, 1);
  std::vector<Row> rows = Rows("SELECT score FROM f");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].is_double());
  EXPECT_EQ(rows[0][0], Value(2.0));
  EXPECT_EQ(Code("UPDATE f SET score = NULL WHERE id = 1"),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Code("UPDATE f SET score = 'x' WHERE id = 1"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Rows("SELECT score FROM f"), (std::vector<Row>{{Value(2.0)}}));
}

// ---------------------------------------------------------------------
// Multi-row INSERT atomicity and the batch insert path
// ---------------------------------------------------------------------

TEST_F(DmlTest, MultiRowInsertCollidingWithTableAppliesNothing) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT);
      INSERT INTO t VALUES (1, 1);
    )sql")
                  .ok());
  EXPECT_EQ(Code("INSERT INTO t VALUES (2, 2), (3, 3), (1, 9)"),
            StatusCode::kConstraintViolation);
  const std::vector<Row> original = {{Value(int64_t{1}), Value(int64_t{1})}};
  EXPECT_EQ(Rows("SELECT id, v FROM t ORDER BY id"), original);
  EXPECT_TRUE(Rows("SELECT v FROM t WHERE id = 2").empty());
  // Inside a transaction a good batch is undone row by row on ROLLBACK.
  Run("BEGIN");
  EXPECT_EQ(Run("INSERT INTO t VALUES (2, 2), (3, 3)").affected, 2);
  Run("ROLLBACK");
  EXPECT_EQ(Rows("SELECT id, v FROM t ORDER BY id"), original);
  EXPECT_TRUE(Rows("SELECT v FROM t WHERE id = 3").empty());
}

TEST_F(DmlTest, MultiRowInsertRepeatingAKeyAppliesNothing) {
  ASSERT_TRUE(
      db_.ExecuteScript("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT);")
          .ok());
  EXPECT_EQ(Code("INSERT INTO t VALUES (5, 5), (5, 6)"),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(Rows("SELECT id, v FROM t").empty());
  EXPECT_TRUE(Rows("SELECT v FROM t WHERE id = 5").empty());
  EXPECT_EQ(Run("INSERT INTO t VALUES (5, 6)").affected, 1);
}

// Two databases with the same table, one loaded by InsertBatch and one by
// a loop of Insert, after the same history of inserts and deletes (so the
// free list is not empty).
class BatchInsertTest : public ::testing::Test {
 protected:
  static constexpr const char* kSchema = R"sql(
      CREATE TABLE t (id BIGINT PRIMARY KEY, g BIGINT, s VARCHAR(8),
                      d DOUBLE, n BIGINT NOT NULL);
      CREATE INDEX t_g ON t (g);
      CREATE INDEX t_gs ON t (g, s);
    )sql";

  void SetUp() override {
    for (Database* db : {&batch_db_, &loop_db_}) {
      ASSERT_TRUE(db->ExecuteScript(kSchema).ok());
      std::string insert = "INSERT INTO t VALUES ";
      for (int i = 0; i < 80; ++i) {
        if (i > 0) insert += ", ";
        insert += "(" + std::to_string(i) + ", " + std::to_string(i % 6) +
                  ", 's" + std::to_string(i % 4) + "', 0.5, 1)";
      }
      ASSERT_TRUE(db->Execute(insert).ok());
      ASSERT_TRUE(db->Execute("DELETE FROM t WHERE g = 2 OR id > 70").ok());
    }
  }

  // Rows with NULL-able parts, repeated keys and int/double coercion.
  static std::vector<Row> NewRows(int first, int count) {
    std::vector<Row> rows;
    for (int i = first; i < first + count; ++i) {
      Value g = i % 9 == 0 ? Value::Null() : Value(int64_t{i % 5});
      Value s = i % 7 == 0 ? Value::Null() : Value("s" + std::to_string(i % 3));
      Value d = i % 4 == 0 ? Value::Null() : Value(int64_t{i});  // coerced
      rows.push_back({Value(int64_t{i}), g, s, d, Value(int64_t{i % 2})});
    }
    return rows;
  }

  static Table* T(Database* db) { return db->GetTable("t"); }

  // Every observable the two loads must agree on.
  static void ExpectSameTables(Database* a, Database* b) {
    const Table& ta = *T(a);
    const Table& tb = *T(b);
    EXPECT_EQ(ta.stats_version(), tb.stats_version());
    EXPECT_EQ(ta.row_count(), tb.row_count());
    EXPECT_EQ(ta.slot_count(), tb.slot_count());
    for (size_t c = 0; c < ta.column_count(); ++c) {
      Table::ColumnStats sa = ta.GetColumnStats(c);
      Table::ColumnStats sb = tb.GetColumnStats(c);
      EXPECT_EQ(sa.row_count, sb.row_count) << c;
      EXPECT_EQ(sa.null_count, sb.null_count) << c;
      EXPECT_EQ(sa.ndv, sb.ndv) << c;
      EXPECT_EQ(sa.min, sb.min) << c;
      EXPECT_EQ(sa.max, sb.max) << c;
    }
    ASSERT_EQ(ta.indexes().size(), tb.indexes().size());
    for (size_t i = 0; i < ta.indexes().size(); ++i) {
      ExpectSameIndex(ta, *ta.indexes()[i], *tb.indexes()[i]);
    }
    for (const char* sql :
         {"SELECT * FROM t ORDER BY id", "SELECT id FROM t WHERE g = 3",
          "SELECT id, d FROM t WHERE g = 4 AND s = 's1'",
          "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g"}) {
      Result<ResultSet> ra = a->Execute(sql);
      Result<ResultSet> rb = b->Execute(sql);
      ASSERT_TRUE(ra.ok() && rb.ok()) << sql;
      EXPECT_EQ(ra->rows, rb->rows) << sql;
    }
  }

  // Same postings for the key of every live row: in the same order, or
  // as sets when `ordered` is false.
  static void ExpectSameIndex(const Table& table, const Index& a,
                              const Index& b, bool ordered = true) {
    EXPECT_EQ(a.entry_count(), b.entry_count()) << a.name();
    EXPECT_EQ(a.key_count(), b.key_count()) << a.name();
    for (RowId rid = 0; rid < table.slot_count(); ++rid) {
      if (!table.IsLive(rid)) continue;
      Row key;
      for (size_t c : a.column_indexes()) key.push_back(table.ValueAt(rid, c));
      std::vector<RowId> pa = LookupAll(a, key);
      std::vector<RowId> pb = LookupAll(b, key);
      if (!ordered) {
        std::sort(pa.begin(), pa.end());
        std::sort(pb.begin(), pb.end());
      }
      ASSERT_EQ(pa, pb) << a.name();
    }
  }

  Database batch_db_;
  Database loop_db_;
};

TEST_F(BatchInsertTest, BatchEqualsLoopOfInserts) {
  ASSERT_GT(T(&batch_db_)->slot_count(), T(&batch_db_)->row_count());
  for (auto [first, count] : {std::pair{100, 5}, std::pair{200, 400}}) {
    std::vector<Row> rows = NewRows(first, count);
    Result<std::vector<RowId>> batch = T(&batch_db_)->InsertBatch(rows);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    std::vector<RowId> loop;
    for (Row& row : rows) {
      Result<RowId> rid = T(&loop_db_)->Insert(std::move(row));
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      loop.push_back(*rid);
    }
    EXPECT_EQ(*batch, loop);
    ExpectSameTables(&batch_db_, &loop_db_);
  }
  // An index built over the loaded rows holds the maintained postings. It
  // lists them in slot order, and the maintained one in insertion order:
  // the two differ where a free slot was reused.
  ASSERT_TRUE(batch_db_
                  .ExecuteScript("CREATE INDEX t_g2 ON t (g);"
                                 "CREATE INDEX t_gs2 ON t (g, s);"
                                 "CREATE UNIQUE INDEX t_id2 ON t (id);")
                  .ok());
  const Table& table = *T(&batch_db_);
  const auto& indexes = table.indexes();
  ASSERT_EQ(indexes.size(), 6u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(indexes[(i + 1) % 3]->column_indexes(),
              indexes[3 + i]->column_indexes());
    ExpectSameIndex(table, *indexes[(i + 1) % 3], *indexes[3 + i],
                    /*ordered=*/false);
  }
  EXPECT_EQ(batch_db_.Execute("CREATE UNIQUE INDEX t_g3 ON t (g)")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
}

TEST_F(BatchInsertTest, FailingBatchChangesNothing) {
  Table* table = T(&batch_db_);
  auto snapshot = [table] {
    std::vector<std::string> state = {
        std::to_string(table->row_count()),
        std::to_string(table->stats_version())};
    for (const auto& index : table->indexes()) {
      state.push_back(std::to_string(index->entry_count()));
    }
    for (size_t c = 0; c < table->column_count(); ++c) {
      Table::ColumnStats stats = table->GetColumnStats(c);
      state.push_back(std::to_string(stats.null_count) + "/" +
                      std::to_string(stats.ndv) + "/" +
                      stats.min.ToString() + "/" + stats.max.ToString());
    }
    return state;
  };
  const std::vector<std::string> before = snapshot();
  std::vector<Row> against_table = NewRows(300, 50);
  against_table[40][0] = Value(int64_t{5});  // id 5 is live
  std::vector<Row> within_batch = NewRows(300, 50);
  within_batch[45][0] = Value(int64_t{310});
  std::vector<Row> not_null = NewRows(300, 50);
  not_null[49][4] = Value::Null();
  for (std::vector<Row>* rows : {&against_table, &within_batch, &not_null}) {
    Result<std::vector<RowId>> rids = table->InsertBatch(*rows);
    EXPECT_EQ(rids.status().code(), StatusCode::kConstraintViolation);
    EXPECT_EQ(snapshot(), before);
  }
}

// ---------------------------------------------------------------------
// Index-targeted DML equivalence
// ---------------------------------------------------------------------

// One DML shape, run against both twins. `{T}` in the text is replaced by
// the table name. `indexed` is the access path expected on the indexed
// twin (the unindexed one always scans).
struct DmlShape {
  std::string sql;
  std::vector<Value> params;
  bool indexed;
};

std::string ForTable(std::string sql, const std::string& table) {
  size_t pos = sql.find("{T}");
  return sql.replace(pos, 3, table);
}

std::vector<DmlShape> Shapes() {
  const Value null = Value::Null();
  return {
      // eq on an indexed column
      {"DELETE FROM {T} WHERE a = ?", {Value(int64_t{3})}, true},
      {"UPDATE {T} SET d = d + 1 WHERE a = ?", {Value(int64_t{3})}, true},
      // eq on both columns of the composite index, either order
      {"DELETE FROM {T} WHERE b = ? AND c = ?", {Value(int64_t{2}), Value("k1")},
       true},
      {"UPDATE {T} SET c = 'z' WHERE c = ? AND b = ?",
       {Value("k0"), Value(int64_t{4})}, true},
      // eq plus a residual predicate
      {"DELETE FROM {T} WHERE a = ? AND d > ?", {Value(int64_t{2}), Value(10.0)},
       true},
      {"UPDATE {T} SET b = 9 WHERE a = ? AND c <> 'k2'", {Value(int64_t{1})},
       true},
      // IN with duplicate values
      {"DELETE FROM {T} WHERE a IN (1, ?, 1, 4)", {Value(int64_t{4})}, true},
      {"UPDATE {T} SET d = 0.25 WHERE u IN (1003, 1003, ?)",
       {Value(int64_t{1040})}, true},
      // NULL parameter: matches nothing, even NULL cells
      {"DELETE FROM {T} WHERE a = ?", {null}, true},
      {"UPDATE {T} SET c = 'n' WHERE id = ?", {null}, true},
      // DOUBLE parameter against a BIGINT column
      {"DELETE FROM {T} WHERE id = ?", {Value(7.0)}, true},
      {"UPDATE {T} SET c = 'w' WHERE a = ?", {Value(2.0)}, true},
      {"DELETE FROM {T} WHERE id = ?", {Value(7.5)}, true},
      // OR offers no single probe term
      {"DELETE FROM {T} WHERE a = 1 OR b = 2", {}, false},
      {"UPDATE {T} SET d = -1 WHERE a = ? OR u = ?",
       {Value(int64_t{5}), Value(int64_t{1020})}, false},
      // no WHERE
      {"UPDATE {T} SET d = d * 2", {}, false},
      {"DELETE FROM {T}", {}, false},
      // UPDATE of the probed column itself
      {"UPDATE {T} SET a = a + 1 WHERE a = ?", {Value(int64_t{5})}, true},
      {"UPDATE {T} SET id = id + 1000 WHERE id IN (?, 4, 9)",
       {Value(int64_t{3})}, true},
      {"UPDATE {T} SET u = u + 500 WHERE u = ? AND a IS NOT NULL",
       {Value(int64_t{1012})}, true},
  };
}

class DmlEquivalenceTest : public DmlTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
        CREATE TABLE ix (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT,
                         c VARCHAR(8), d DOUBLE, u BIGINT);
        CREATE INDEX ix_a ON ix (a);
        CREATE INDEX ix_bc ON ix (b, c);
        CREATE UNIQUE INDEX ix_u ON ix (u);
        CREATE TABLE nx (id BIGINT, a BIGINT, b BIGINT, c VARCHAR(8),
                         d DOUBLE, u BIGINT);
      )sql")
                    .ok());
  }

  void Reload() {
    for (const char* table : {"ix", "nx"}) {
      ASSERT_TRUE(db_.Execute(std::string("DELETE FROM ") + table).ok());
      std::string insert = std::string("INSERT INTO ") + table + " VALUES ";
      for (int i = 0; i < 60; ++i) {
        if (i > 0) insert += ", ";
        std::string a = i % 11 == 0 ? "NULL" : std::to_string(i % 7);
        insert += "(" + std::to_string(i) + ", " + a + ", " +
                  std::to_string(i % 5) + ", 'k" + std::to_string(i % 3) +
                  "', " + std::to_string(i * 0.5) + ", " +
                  std::to_string(1000 + i) + ")";
      }
      ASSERT_TRUE(db_.Execute(insert).ok());
    }
  }

  std::vector<Row> Contents(const std::string& table) {
    return Rows("SELECT id, a, b, c, d, u FROM " + table +
                " ORDER BY id, a, b, c, d, u");
  }

  // Runs `shape` on both twins and checks they agree.
  void RunOnBoth(const DmlShape& shape) {
    int64_t affected[2] = {0, 0};
    const char* tables[2] = {"ix", "nx"};
    for (int t = 0; t < 2; ++t) {
      std::string sql = ForTable(shape.sql, tables[t]);
      Result<PreparedStatement> prepared = db_.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      Result<ResultSet> rs = prepared->Execute(shape.params);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
      affected[t] = rs->affected;
      const bool probes = t == 0 && shape.indexed;
      EXPECT_STREQ(rs->exec.AccessPath(), probes ? "index" : "scan") << sql;
      if (probes) {
        // Candidates examined: only the rows behind the probed keys.
        EXPECT_LT(rs->exec.rows_scanned, 60u) << sql;
      }
    }
    EXPECT_EQ(affected[0], affected[1]) << shape.sql;
    EXPECT_EQ(Contents("ix"), Contents("nx")) << shape.sql;
  }
};

TEST_F(DmlEquivalenceTest, EachShapeMatchesUnindexedTwin) {
  for (const DmlShape& shape : Shapes()) {
    Reload();
    RunOnBoth(shape);
  }
}

TEST_F(DmlEquivalenceTest, ShapesInsideRolledBackTransaction) {
  Reload();
  const std::vector<Row> original = Contents("ix");
  ASSERT_EQ(original, Contents("nx"));
  for (const DmlShape& shape : Shapes()) {
    Run("BEGIN");
    RunOnBoth(shape);
    Run("ROLLBACK");
    ASSERT_EQ(Contents("ix"), original) << shape.sql;
    ASSERT_EQ(Contents("nx"), original) << shape.sql;
  }
  // The indexes were restored along with the rows.
  EXPECT_EQ(Rows("SELECT id FROM ix WHERE a = 3 ORDER BY id"),
            Rows("SELECT id FROM nx WHERE a = 3 ORDER BY id"));
  EXPECT_EQ(Rows("SELECT id FROM ix WHERE u = 1007"),
            (std::vector<Row>{{Value(int64_t{7})}}));
}

TEST_F(DmlEquivalenceTest, CumulativeShapesStayEquivalent) {
  Reload();
  for (const DmlShape& shape : Shapes()) {
    if (shape.sql == "DELETE FROM {T}") continue;  // would end the run
    RunOnBoth(shape);
  }
  EXPECT_FALSE(Contents("ix").empty());
}

}  // namespace
}  // namespace db2graph::sql
