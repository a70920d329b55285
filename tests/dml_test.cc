// UPDATE/DELETE coverage: statements target their rows through the same
// index access path SELECT uses (equivalence against an unindexed twin
// table, inside and outside transactions), UPDATE enforces unique indexes
// and column types like INSERT does, and hash-index posting lists keep
// their order and accounting across erases.

#include <string>
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
  std::vector<RowId> out;
  index.Lookup(key, &out);
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
