// Unit tests for the MiniDb2 relational engine: DDL, DML, SELECT pipeline,
// indexes, views, table functions, and transactions.

#include <gtest/gtest.h>

#include "common/exec_config.h"
#include "common/metrics.h"
#include "sql/database.h"
#include "sql/executor.h"
#include "sql/table.h"

namespace db2graph::sql {
namespace {

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Patient (
        patientID BIGINT PRIMARY KEY,
        name VARCHAR(100),
        address VARCHAR(200),
        subscriptionID BIGINT
      );
      CREATE TABLE Disease (
        diseaseID BIGINT PRIMARY KEY,
        conceptCode VARCHAR(20),
        conceptName VARCHAR(100)
      );
      CREATE TABLE HasDisease (
        patientID BIGINT,
        diseaseID BIGINT,
        description VARCHAR(200),
        FOREIGN KEY (patientID) REFERENCES Patient (patientID),
        FOREIGN KEY (diseaseID) REFERENCES Disease (diseaseID)
      );
      INSERT INTO Patient VALUES
        (1, 'Alice', '1 Main St', 101),
        (2, 'Bob', '2 Oak Ave', 102),
        (3, 'Carol', '3 Pine Rd', 103);
      INSERT INTO Disease VALUES
        (10, 'D10', 'diabetes'),
        (11, 'D11', 'type 2 diabetes'),
        (12, 'D12', 'hypertension');
      INSERT INTO HasDisease VALUES
        (1, 11, 'diagnosed 2019'),
        (2, 12, 'diagnosed 2020'),
        (3, 11, 'diagnosed 2021');
    )sql")
                    .ok());
  }

  ResultSet Query(const std::string& sql) {
    Result<ResultSet> rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
    return rs.ok() ? *rs : ResultSet{};
  }

  Database db_;
};

TEST_F(SqlEngineTest, SelectStarReturnsAllRowsAndColumns) {
  ResultSet rs = Query("SELECT * FROM Patient");
  EXPECT_EQ(rs.columns,
            (std::vector<std::string>{"patientID", "name", "address",
                                      "subscriptionID"}));
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(SqlEngineTest, WhereEqualityFilters) {
  ResultSet rs = Query("SELECT name FROM Patient WHERE patientID = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
}

TEST_F(SqlEngineTest, WhereUsesPrimaryKeyIndex) {
  db_.stats().Reset();
  Query("SELECT name FROM Patient WHERE patientID = 2");
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
}

TEST_F(SqlEngineTest, InListProbesIndexPerValue) {
  db_.stats().Reset();
  ResultSet rs = Query("SELECT name FROM Patient WHERE patientID IN (1, 3)");
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_GE(db_.stats().Snapshot().index_probes, 2u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
}

TEST_F(SqlEngineTest, NonIndexedPredicateFallsBackToScan) {
  db_.stats().Reset();
  ResultSet rs = Query("SELECT * FROM Patient WHERE name = 'Alice'");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_GE(db_.stats().Snapshot().full_scans, 1u);
}

TEST_F(SqlEngineTest, SecondaryIndexIsUsedAfterCreation) {
  Query("SELECT 1 FROM Patient");  // warm-up no-op
  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_name ON Patient (name)").ok());
  db_.stats().Reset();
  ResultSet rs = Query("SELECT * FROM Patient WHERE name = 'Alice'");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(db_.stats().Snapshot().full_scans, 0u);
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);
}

TEST_F(SqlEngineTest, JoinOnForeignKey) {
  ResultSet rs = Query(
      "SELECT p.name, d.conceptName FROM HasDisease h "
      "JOIN Patient p ON h.patientID = p.patientID "
      "JOIN Disease d ON h.diseaseID = d.diseaseID "
      "ORDER BY p.name");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  EXPECT_EQ(rs.rows[0][1], Value("type 2 diabetes"));
}

TEST_F(SqlEngineTest, ImplicitJoinViaWhere) {
  ResultSet rs = Query(
      "SELECT p.name FROM Patient p, HasDisease h "
      "WHERE p.patientID = h.patientID AND h.diseaseID = 11 ORDER BY p.name");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  EXPECT_EQ(rs.rows[1][0], Value("Carol"));
}

TEST_F(SqlEngineTest, LeftJoinPreservesUnmatchedRows) {
  ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (4, 'Dave', '4 Elm', "
                          "104)")
                  .ok());
  ResultSet rs = Query(
      "SELECT p.name, h.diseaseID FROM Patient p "
      "LEFT JOIN HasDisease h ON p.patientID = h.patientID "
      "ORDER BY p.name");
  ASSERT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(rs.rows[3][0], Value("Dave"));
  EXPECT_TRUE(rs.rows[3][1].is_null());
}

TEST_F(SqlEngineTest, AggregatesOverWholeTable) {
  ResultSet rs = Query(
      "SELECT COUNT(*), MIN(patientID), MAX(patientID), AVG(patientID) "
      "FROM Patient");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{1}));
  EXPECT_EQ(rs.rows[0][2], Value(int64_t{3}));
  EXPECT_DOUBLE_EQ(rs.rows[0][3].NumericValue(), 2.0);
}

TEST_F(SqlEngineTest, CountOnEmptyResultIsZero) {
  ResultSet rs = Query("SELECT COUNT(*) FROM Patient WHERE patientID = 99");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{0}));
}

TEST_F(SqlEngineTest, GroupByWithAggregate) {
  ResultSet rs = Query(
      "SELECT diseaseID, COUNT(*) AS n FROM HasDisease "
      "GROUP BY diseaseID ORDER BY n DESC, diseaseID");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{11}));
  EXPECT_EQ(rs.rows[0][1], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, DistinctRemovesDuplicates) {
  ResultSet rs = Query("SELECT DISTINCT diseaseID FROM HasDisease");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(SqlEngineTest, OrderByDescAndLimit) {
  ResultSet rs =
      Query("SELECT patientID FROM Patient ORDER BY patientID DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[1][0], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, ArithmeticAndStringConcat) {
  ResultSet rs = Query(
      "SELECT patientID * 2 + 1, name || '!' FROM Patient WHERE "
      "patientID = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  EXPECT_EQ(rs.rows[0][1], Value("Alice!"));
}

TEST_F(SqlEngineTest, LikePatterns) {
  ResultSet rs = Query("SELECT name FROM Patient WHERE name LIKE 'A%'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  rs = Query("SELECT name FROM Patient WHERE name LIKE '_ob'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
}

TEST_F(SqlEngineTest, IsNullAndIsNotNull) {
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Patient (patientID, name) VALUES (5, 'Eve')")
          .ok());
  ResultSet rs = Query("SELECT name FROM Patient WHERE address IS NULL");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Eve"));
  rs = Query(
      "SELECT COUNT(*) FROM Patient WHERE address IS NOT NULL");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
}

TEST_F(SqlEngineTest, PrimaryKeyUniquenessEnforced) {
  Result<ResultSet> rs =
      db_.Execute("INSERT INTO Patient VALUES (1, 'Dup', 'x', 1)");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlEngineTest, ForeignKeyEnforcedOnInsert) {
  Result<ResultSet> rs =
      db_.Execute("INSERT INTO HasDisease VALUES (99, 11, 'bad patient')");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlEngineTest, NotNullEnforced) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE T (a BIGINT NOT NULL, b VARCHAR(10))").ok());
  Result<ResultSet> rs = db_.Execute("INSERT INTO T (b) VALUES ('x')");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(SqlEngineTest, UpdateChangesMatchingRows) {
  ResultSet rs =
      Query("UPDATE Patient SET address = 'moved' WHERE patientID = 1");
  EXPECT_EQ(rs.affected, 1);
  rs = Query("SELECT address FROM Patient WHERE patientID = 1");
  EXPECT_EQ(rs.rows[0][0], Value("moved"));
}

TEST_F(SqlEngineTest, DeleteRemovesRowsAndIndexEntries) {
  ResultSet rs = Query("DELETE FROM HasDisease WHERE diseaseID = 11");
  EXPECT_EQ(rs.affected, 2);
  rs = Query("SELECT COUNT(*) FROM HasDisease");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{1}));
}

TEST_F(SqlEngineTest, ViewExpandsAtQueryTimeAndSeesUpdates) {
  ASSERT_TRUE(db_.Execute(
                     "CREATE VIEW Diabetics AS SELECT p.patientID, p.name "
                     "FROM Patient p JOIN HasDisease h ON p.patientID = "
                     "h.patientID WHERE h.diseaseID = 11")
                  .ok());
  ResultSet rs = Query("SELECT * FROM Diabetics ORDER BY patientID");
  ASSERT_EQ(rs.rows.size(), 2u);
  // A new base-table row is visible through the view immediately.
  ASSERT_TRUE(
      db_.Execute("INSERT INTO HasDisease VALUES (2, 11, 'later')").ok());
  rs = Query("SELECT * FROM Diabetics");
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(SqlEngineTest, ViewSchemaIsDerivedWithoutExecution) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW V AS SELECT name AS who, "
                          "patientID * 2 AS twice FROM Patient")
                  .ok());
  const TableSchema* schema = db_.GetSchema("V");
  ASSERT_NE(schema, nullptr);
  ASSERT_EQ(schema->columns.size(), 2u);
  EXPECT_EQ(schema->columns[0].name, "who");
  EXPECT_EQ(schema->columns[1].name, "twice");
}

TEST_F(SqlEngineTest, SubqueryInFrom) {
  ResultSet rs = Query(
      "SELECT COUNT(*) FROM (SELECT patientID FROM Patient "
      "WHERE patientID > 1) AS sub");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, TableFunctionInFrom) {
  db_.RegisterTableFunction(
      "twoRows", [](const std::vector<Value>& args) -> Result<ResultSet> {
        ResultSet rs;
        rs.columns = {"a", "b"};
        rs.rows.push_back({args.empty() ? Value(int64_t{0}) : args[0],
                           Value("x")});
        rs.rows.push_back({Value(int64_t{2}), Value("y")});
        return rs;
      });
  ResultSet rs = Query(
      "SELECT t.a, t.b FROM TABLE (twoRows(7)) AS t (a BIGINT, b "
      "VARCHAR(5)) ORDER BY a");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{2}));
  EXPECT_EQ(rs.rows[1][0], Value(int64_t{7}));
}

TEST_F(SqlEngineTest, PreparedStatementWithParameters) {
  Result<PreparedStatement> prepared =
      db_.Prepare("SELECT name FROM Patient WHERE patientID = ?");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->param_count(), 1);
  Result<ResultSet> rs = prepared->Execute({Value(int64_t{2})});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("Bob"));
  rs = prepared->Execute({Value(int64_t{3})});
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0], Value("Carol"));
}

TEST_F(SqlEngineTest, PreparedStatementParamCountMismatch) {
  Result<PreparedStatement> prepared =
      db_.Prepare("SELECT name FROM Patient WHERE patientID = ?");
  ASSERT_TRUE(prepared.ok());
  Result<ResultSet> rs = prepared->Execute({});
  EXPECT_FALSE(rs.ok());
}

TEST_F(SqlEngineTest, TransactionRollbackUndoesAllChanges) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (7, 'Tmp', 't', 107)")
                  .ok());
  ASSERT_TRUE(
      db_.Execute("UPDATE Patient SET name = 'Changed' WHERE patientID = 1")
          .ok());
  ASSERT_TRUE(
      db_.Execute("DELETE FROM Patient WHERE patientID = 3").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  ResultSet rs = Query("SELECT COUNT(*) FROM Patient");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
  rs = Query("SELECT name FROM Patient WHERE patientID = 1");
  EXPECT_EQ(rs.rows[0][0], Value("Alice"));
  rs = Query("SELECT COUNT(*) FROM Patient WHERE patientID = 3");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{1}));
}

TEST_F(SqlEngineTest, TransactionCommitKeepsChanges) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (8, 'Kept', 'k', 108)")
                  .ok());
  ASSERT_TRUE(db_.Execute("COMMIT").ok());
  ResultSet rs = Query("SELECT COUNT(*) FROM Patient");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{4}));
}

TEST_F(SqlEngineTest, RollbackRestoresIndexConsistency) {
  ASSERT_TRUE(db_.Execute("BEGIN").ok());
  ASSERT_TRUE(
      db_.Execute("DELETE FROM Patient WHERE patientID = 2").ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK").ok());
  db_.stats().Reset();
  ResultSet rs = Query("SELECT name FROM Patient WHERE patientID = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
  EXPECT_GE(db_.stats().Snapshot().index_probes, 1u);  // found via restored index
}

TEST_F(SqlEngineTest, BetweenPredicate) {
  ResultSet rs =
      Query("SELECT COUNT(*) FROM Patient WHERE patientID BETWEEN 1 AND 2");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{2}));
}

TEST_F(SqlEngineTest, ParseErrorsSurfaceAsInvalidArgument) {
  Result<ResultSet> rs = db_.Execute("SELEC * FORM Patient");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SqlEngineTest, UnknownTableIsNotFound) {
  Result<ResultSet> rs = db_.Execute("SELECT * FROM Nope");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(SqlEngineTest, DropTableRemovesRelation) {
  ASSERT_TRUE(db_.Execute("DROP TABLE HasDisease").ok());
  EXPECT_FALSE(db_.HasRelation("HasDisease"));
  EXPECT_FALSE(db_.Execute("SELECT * FROM HasDisease").ok());
}

TEST_F(SqlEngineTest, ApproxBytesGrowsWithData) {
  size_t before = db_.ApproxBytes();
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO Patient VALUES (" +
                            std::to_string(i) + ", 'P', 'addr', 1)")
                    .ok());
  }
  EXPECT_GT(db_.ApproxBytes(), before);
}

TEST_F(SqlEngineTest, CatalogListsTablesAndViews) {
  ASSERT_TRUE(
      db_.Execute("CREATE VIEW V1 AS SELECT name FROM Patient").ok());
  std::vector<std::string> tables = db_.TableNames();
  EXPECT_EQ(tables.size(), 3u);
  std::vector<std::string> views = db_.ViewNames();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0], "V1");
}

TEST_F(SqlEngineTest, SchemaExposesPrimaryAndForeignKeys) {
  const TableSchema* schema = db_.GetSchema("HasDisease");
  ASSERT_NE(schema, nullptr);
  EXPECT_FALSE(schema->has_primary_key());
  ASSERT_EQ(schema->foreign_keys.size(), 2u);
  EXPECT_EQ(schema->foreign_keys[0].ref_table, "Patient");
}

// The multi-row VALUES and quoted-identifier paths.
TEST_F(SqlEngineTest, MultiRowInsertAndQuotedIdentifiers) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE \"Mixed\" (\"idCol\" BIGINT)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Mixed VALUES (1), (2), (3)").ok());
  ResultSet rs = Query("SELECT COUNT(*) FROM Mixed");
  EXPECT_EQ(rs.rows[0][0], Value(int64_t{3}));
}

// ------------------------------------------------------------------
// Columnar storage + vectorized execution
// ------------------------------------------------------------------

// Every statement must produce identical results on the vectorized and
// the scalar path, including over NULL-heavy columns (kernels must drop
// NULL cells exactly where three-valued logic does, and aggregates must
// skip them exactly like AggState does).
TEST_F(SqlEngineTest, VectorizedAndScalarAgreeOnNullHeavyColumns) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Nully (id BIGINT, score DOUBLE, tag VARCHAR(10));
      INSERT INTO Nully VALUES
        (1, 1.5, 'a'), (2, NULL, NULL), (NULL, 2.5, 'b'),
        (4, NULL, 'a'), (5, 7.25, NULL), (NULL, NULL, NULL);
    )sql")
                  .ok());
  const char* const kQueries[] = {
      "SELECT * FROM Nully",
      "SELECT id, tag FROM Nully",
      "SELECT * FROM Nully WHERE id > 1",
      "SELECT * FROM Nully WHERE score >= 2.5",
      "SELECT * FROM Nully WHERE tag = 'a'",
      "SELECT * FROM Nully WHERE id <> 4",
      "SELECT * FROM Nully WHERE 2 < id",
      "SELECT * FROM Nully WHERE id > 0.5",
      "SELECT * FROM Nully WHERE id = 'a'",
      "SELECT * FROM Nully WHERE id IS NULL",
      "SELECT * FROM Nully WHERE tag IS NOT NULL",
      "SELECT * FROM Nully WHERE id > 1 AND tag = 'a'",
      "SELECT * FROM Nully WHERE id + 1 > 2",  // scalar-fallback kernel
      "SELECT COUNT(*), COUNT(id), COUNT(score) FROM Nully",
      "SELECT SUM(id), AVG(score), MIN(id), MAX(score) FROM Nully",
      "SELECT MIN(tag), MAX(tag), SUM(score) FROM Nully",
      "SELECT tag, COUNT(*) FROM Nully GROUP BY tag",
      "SELECT tag, SUM(id), MIN(score) FROM Nully GROUP BY tag",
      "SELECT DISTINCT tag FROM Nully",
  };
  for (const char* q : kQueries) {
    db_.SetExecConfig(db_.exec_config().vectorized(true));
    Result<ResultSet> vectorized = db_.Execute(q);
    db_.SetExecConfig(db_.exec_config().vectorized(false));
    Result<ResultSet> scalar = db_.Execute(q);
    db_.SetExecConfig(db_.exec_config().vectorized(true));
    ASSERT_TRUE(vectorized.ok()) << q << ": " << vectorized.status().ToString();
    ASSERT_TRUE(scalar.ok()) << q << ": " << scalar.status().ToString();
    EXPECT_EQ(vectorized->columns, scalar->columns) << q;
    EXPECT_EQ(vectorized->rows, scalar->rows) << q;
  }
}

TEST_F(SqlEngineTest, ExecModeAttributesVectorizedAndScalarOperators) {
  // Full scan + column projection: pure vectorized.
  ResultSet rs = Query("SELECT name FROM Patient");
  EXPECT_STREQ(rs.exec.ExecMode(), "vectorized");
  EXPECT_EQ(rs.exec.vectorized_rows, 3u);
  EXPECT_EQ(rs.exec.scalar_fallback_rows, 0u);

  // Computed select item: the column scan feeds the scalar projection.
  rs = Query("SELECT patientID + 1 FROM Patient");
  EXPECT_STREQ(rs.exec.ExecMode(), "mixed");

  // Index probes stay on the scalar join machinery.
  rs = Query("SELECT name FROM Patient WHERE patientID = 2");
  EXPECT_STREQ(rs.exec.ExecMode(), "scalar");
  EXPECT_EQ(rs.exec.index_probes, 1u);

  // A predicate without a kernel runs the scalar evaluator inside the
  // vectorized filter, visible as scalar_fallback_rows.
  rs = Query("SELECT name FROM Patient WHERE patientID + 0 = 2");
  EXPECT_STREQ(rs.exec.ExecMode(), "vectorized");
  EXPECT_EQ(rs.exec.scalar_fallback_rows, 3u);

  // The toggle forces everything back onto the row operators.
  db_.SetExecConfig(db_.exec_config().vectorized(false));
  rs = Query("SELECT name FROM Patient");
  EXPECT_STREQ(rs.exec.ExecMode(), "scalar");
  EXPECT_EQ(rs.exec.vectorized_rows, 0u);
  db_.SetExecConfig(db_.exec_config().vectorized(true));
}

// Deletes leave a recyclable slot; re-inserts reuse it without growing
// the column vectors, and both execution modes keep dead slots invisible.
TEST_F(SqlEngineTest, DeletedSlotsAreRecycledAndStayInvisible) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Slots (id BIGINT PRIMARY KEY, v VARCHAR(10));
      INSERT INTO Slots VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');
    )sql")
                  .ok());
  Table* table = db_.GetTable("Slots");
  ASSERT_NE(table, nullptr);
  const size_t slots = table->slot_count();
  ASSERT_TRUE(db_.Execute("DELETE FROM Slots WHERE id = 2 OR id = 3").ok());
  EXPECT_EQ(table->row_count(), 2u);
  EXPECT_EQ(table->slot_count(), slots);
  for (bool vectorized : {true, false}) {
    db_.SetExecConfig(db_.exec_config().vectorized(vectorized));
    EXPECT_EQ(Query("SELECT COUNT(*) FROM Slots").rows[0][0],
              Value(int64_t{2}));
  }
  db_.SetExecConfig(db_.exec_config().vectorized(true));
  ASSERT_TRUE(db_.Execute("INSERT INTO Slots VALUES (5, 'e'), (6, 'f')").ok());
  EXPECT_EQ(table->slot_count(), slots);  // free slots recycled, no growth
  EXPECT_EQ(table->row_count(), 4u);
  // The primary-key index probes the recycled slots correctly.
  ResultSet rs = Query("SELECT v FROM Slots WHERE id = 6");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("f"));
  EXPECT_EQ(rs.exec.index_probes, 1u);
}

// Index postings hold stable slot numbers, so in-place column rewrites
// (UPDATE of an unrelated column) must not invalidate them.
TEST_F(SqlEngineTest, IndexPostingsSurviveColumnRewrites) {
  ASSERT_TRUE(
      db_.Execute("CREATE INDEX idx_sub ON Patient (subscriptionID)").ok());
  ASSERT_TRUE(
      db_.Execute("UPDATE Patient SET address = 'moved' WHERE patientID = 2")
          .ok());
  ResultSet rs =
      Query("SELECT name, address FROM Patient WHERE subscriptionID = 102");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
  EXPECT_EQ(rs.rows[0][1], Value("moved"));
  EXPECT_EQ(rs.exec.index_probes, 1u);
  // Rewriting the indexed column itself moves the posting.
  ASSERT_TRUE(
      db_.Execute(
             "UPDATE Patient SET subscriptionID = 202 WHERE patientID = 2")
          .ok());
  EXPECT_TRUE(
      Query("SELECT name FROM Patient WHERE subscriptionID = 102")
          .rows.empty());
  rs = Query("SELECT name FROM Patient WHERE subscriptionID = 202");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0], Value("Bob"));
}

TEST_F(SqlEngineTest, ColumnStatsTrackCountsAndMinMax) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Stats (id BIGINT, score DOUBLE);
      INSERT INTO Stats VALUES (1, 2.5), (2, NULL), (7, 9.5), (4, 0.5);
    )sql")
                  .ok());
  const Table* table = db_.GetTable("Stats");
  ASSERT_NE(table, nullptr);
  Table::ColumnStats id_stats = table->GetColumnStats(0);
  EXPECT_EQ(id_stats.row_count, 4u);
  EXPECT_EQ(id_stats.null_count, 0u);
  EXPECT_EQ(id_stats.min, Value(int64_t{1}));
  EXPECT_EQ(id_stats.max, Value(int64_t{7}));
  Table::ColumnStats score_stats = table->GetColumnStats(1);
  EXPECT_EQ(score_stats.null_count, 1u);
  EXPECT_EQ(score_stats.min, Value(0.5));
  EXPECT_EQ(score_stats.max, Value(9.5));
  // Deleting the extreme value forces the lazy min/max rescan.
  ASSERT_TRUE(db_.Execute("DELETE FROM Stats WHERE id = 7").ok());
  id_stats = table->GetColumnStats(0);
  EXPECT_EQ(id_stats.row_count, 3u);
  EXPECT_EQ(id_stats.max, Value(int64_t{4}));
  EXPECT_EQ(table->GetColumnStats(1).max, Value(2.5));
  // The write path published per-column gauges to the global registry.
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetGauge("sql.colstats.Stats.id.rows")->Value(), 3);
  EXPECT_EQ(registry.GetGauge("sql.colstats.Stats.score.nulls")->Value(), 1);
}

// OrderedIndex::ApproxBytes is driven by actual encoded key widths, not a
// per-entry constant: wider keys cost more bytes, and erases give the
// bytes back.
TEST_F(SqlEngineTest, OrderedIndexBytesTrackActualKeyWidths) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE Keys (id BIGINT, sk VARCHAR(8), lk VARCHAR(64));
      CREATE ORDERED INDEX oi_short ON Keys (sk);
      CREATE ORDERED INDEX oi_long ON Keys (lk);
      INSERT INTO Keys VALUES
        (1, 'a', 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'),
        (2, 'b', 'bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb');
    )sql")
                  .ok());
  const Table* table = db_.GetTable("Keys");
  ASSERT_NE(table, nullptr);
  const TableSchema& schema = table->schema();
  const OrderedIndex* short_index =
      table->FindOrderedIndexOn(*schema.ColumnIndex("sk"));
  const OrderedIndex* long_index =
      table->FindOrderedIndexOn(*schema.ColumnIndex("lk"));
  ASSERT_NE(short_index, nullptr);
  ASSERT_NE(long_index, nullptr);
  // Encoded string keys are length + 2.
  EXPECT_EQ(short_index->key_bytes(), 2u * (1 + 2));
  EXPECT_EQ(long_index->key_bytes(), 2u * (32 + 2));
  EXPECT_GT(long_index->ApproxBytes(), short_index->ApproxBytes());
  size_t before = long_index->ApproxBytes();
  ASSERT_TRUE(db_.Execute("DELETE FROM Keys WHERE id = 2").ok());
  EXPECT_EQ(long_index->key_bytes(), 32u + 2);
  EXPECT_LT(long_index->ApproxBytes(), before);
}

// ---------------------------------------------------------------------
// Join column pruning: join stages NULL-fill the columns no expression of
// the statement reads. Every shape below reads some column from only one
// clause, so a column dropped by mistake changes the exact rows.
// ---------------------------------------------------------------------

class JoinColumnPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE a (id BIGINT PRIMARY KEY, grp BIGINT, label VARCHAR,
                      pad VARCHAR);
      CREATE TABLE b (aid BIGINT, val BIGINT, note VARCHAR);
      CREATE TABLE c (k BIGINT, tag VARCHAR, extra VARCHAR);
      CREATE ORDERED INDEX oc_k ON c (k);
      INSERT INTO a VALUES
        (1, 10, 'one', 'padding-one-xxxxxxxxxxxxxx'),
        (2, 10, 'two', 'padding-two-xxxxxxxxxxxxxx'),
        (3, 20, 'three', 'padding-three-xxxxxxxxxxxx'),
        (4, 20, 'four', 'padding-four-xxxxxxxxxxxxx');
      INSERT INTO b VALUES
        (1, 100, 'n1'), (1, 101, 'n1b'), (2, 200, 'n2'), (3, 300, 'n3');
      INSERT INTO c VALUES
        (100, 'x', 'n1'), (150, 'y', 'n1b'), (250, 'z', 'n2'),
        (300, 'w', 'zz');
    )sql")
                    .ok());
  }

  static std::string Render(const ResultSet& rs) {
    std::string out;
    for (const Row& row : rs.rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        out += (i > 0 ? "," : "") + row[i].ToString();
      }
      out += ";";
    }
    return out;
  }

  // Runs `sql` ad hoc and as a prepared statement (twice: the read-column
  // mask is computed once at prepare time) and checks all three results.
  void Expect(const std::string& sql, const std::string& expected) {
    Result<ResultSet> adhoc = db_.Execute(sql);
    ASSERT_TRUE(adhoc.ok()) << adhoc.status().ToString() << " for " << sql;
    EXPECT_EQ(Render(*adhoc), expected) << "ad hoc: " << sql;
    Result<PreparedStatement> prepared = db_.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    for (int run = 0; run < 2; ++run) {
      Result<ResultSet> rs = prepared->Execute({});
      ASSERT_TRUE(rs.ok()) << rs.status().ToString() << " for " << sql;
      EXPECT_EQ(Render(*rs), expected) << "prepared: " << sql;
    }
  }

  // The plan of `sql` names `access` for one of its stages.
  void ExpectAccessPath(const std::string& sql, const std::string& access) {
    Result<ResultSet> rs = db_.Execute("EXPLAIN " + sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    std::string plan;
    for (const Row& row : rs->rows) plan += row[0].as_string() + "\n";
    EXPECT_NE(plan.find(access), std::string::npos) << plan;
  }

  Database db_;
};

TEST_F(JoinColumnPruningTest, StarAndQualifiedStar) {
  Expect("SELECT * FROM a, b WHERE a.id = b.aid AND a.grp = 10 "
         "ORDER BY b.val",
         "1,10,one,padding-one-xxxxxxxxxxxxxx,1,100,n1;"
         "1,10,one,padding-one-xxxxxxxxxxxxxx,1,101,n1b;"
         "2,10,two,padding-two-xxxxxxxxxxxxxx,2,200,n2;");
  Expect("SELECT b.* FROM a JOIN b ON a.id = b.aid WHERE a.grp = 20",
         "3,300,n3;");
  Expect("SELECT a.*, b.note FROM b JOIN a ON a.id = b.aid "
         "WHERE b.val > 150 ORDER BY b.val",
         "2,10,two,padding-two-xxxxxxxxxxxxxx,n2;"
         "3,20,three,padding-three-xxxxxxxxxxxx,n3;");
}

TEST_F(JoinColumnPruningTest, CountStarAndCountColumn) {
  Expect("SELECT COUNT(*) FROM a JOIN b ON a.id = b.aid", "4;");
  // The LEFT JOIN null-extends a.id 4, whose note COUNT(col) skips.
  Expect("SELECT COUNT(*), COUNT(b.note) FROM a LEFT JOIN b "
         "ON a.id = b.aid",
         "5,4;");
  Expect("SELECT COUNT(a.pad) FROM a JOIN b ON a.id = b.aid "
         "WHERE b.note <> 'n2'",
         "3;");
}

TEST_F(JoinColumnPruningTest, OrderGroupHavingOutsideSelectList) {
  Expect("SELECT a.label FROM a JOIN b ON a.id = b.aid "
         "ORDER BY b.val DESC",
         "three;two;one;one;");
  Expect("SELECT b.val AS v FROM a JOIN b ON a.id = b.aid "
         "WHERE a.label <> 'two' ORDER BY v",
         "100;101;300;");
  Expect("SELECT COUNT(*), SUM(b.val) FROM a JOIN b ON a.id = b.aid "
         "GROUP BY a.grp HAVING a.grp > 15",
         "1,300;");
  Expect("SELECT COUNT(*) FROM a JOIN b ON a.id = b.aid "
         "GROUP BY a.grp HAVING MAX(b.note) = 'n2'",
         "3;");
  Expect("SELECT a.grp, COUNT(*) AS n FROM a JOIN b ON a.id = b.aid "
         "GROUP BY a.grp ORDER BY n",
         "20,1;10,3;");
}

TEST_F(JoinColumnPruningTest, LeftJoinNullExtension) {
  Expect("SELECT a.id, b.val FROM a LEFT JOIN b ON a.id = b.aid "
         "ORDER BY a.id, b.val",
         "1,100;1,101;2,200;3,300;4,NULL;");
  Expect("SELECT a.label FROM a LEFT JOIN b ON a.id = b.aid "
         "WHERE b.note IS NULL",
         "four;");
}

TEST_F(JoinColumnPruningTest, HashJoinStage) {
  // b has no index: with more than one outer row the b stage hashes.
  const std::string sql =
      "SELECT a.label, b.note FROM a JOIN b ON b.aid = a.id "
      "WHERE a.grp = 10 ORDER BY b.val";
  ExpectAccessPath(sql, "b hash candidate");
  Expect(sql, "one,n1;one,n1b;two,n2;");
}

TEST_F(JoinColumnPruningTest, RangeStageWithLaterStringPredicate) {
  // The c stage is an ordered-index range scan. b.note is read only by
  // the c stage's predicate, never by the select list.
  const std::string sql =
      "SELECT a.label, b.val, c.k FROM a JOIN b ON a.id = b.aid "
      "JOIN c ON c.k >= b.val AND c.k < b.val + 60 "
      "WHERE c.extra <> b.note ORDER BY b.val, c.k";
  ExpectAccessPath(sql, "c range scan");
  Expect(sql, "one,100,150;three,300,300;");
}

// ------------------------------------------------- compiled sections

// A prepared SELECT compiles once into a section that every execution
// shares; DDL between two executions of the same handle makes the next
// one rebuild it against the new catalog.
class PreparedSectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(
                       "CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(20));"
                       "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
                    .ok());
    Result<PreparedStatement> select =
        db_.Prepare("SELECT b FROM t WHERE a = ?");
    Result<PreparedStatement> count =
        db_.Prepare("SELECT COUNT(b) FROM t WHERE a = ?");
    ASSERT_TRUE(select.ok() && count.ok());
    select_ = std::make_unique<PreparedStatement>(std::move(*select));
    count_ = std::make_unique<PreparedStatement>(std::move(*count));
  }

  static uint64_t Compiles() {
    return metrics::MetricsRegistry::Global()
        .GetCounter(SelectSection::kCompilesCounter)
        ->load();
  }

  // Both handles for a = 1 must return what the same SQL run unprepared
  // returns.
  void ExpectMatchesAdHoc() {
    const std::vector<Value> one = {Value(int64_t{1})};
    Result<ResultSet> adhoc = db_.Execute("SELECT b FROM t WHERE a = 1");
    Result<ResultSet> prepared = select_->Execute(one);
    ASSERT_TRUE(adhoc.ok() && prepared.ok()) << prepared.status().ToString();
    EXPECT_EQ(prepared->rows, adhoc->rows);
    Result<ResultSet> adhoc_count =
        db_.Execute("SELECT COUNT(b) FROM t WHERE a = 1");
    Result<ResultSet> prepared_count = count_->Execute(one);
    ASSERT_TRUE(adhoc_count.ok() && prepared_count.ok());
    EXPECT_EQ(prepared_count->rows, adhoc_count->rows);
  }

  Database db_;
  std::unique_ptr<PreparedStatement> select_;
  std::unique_ptr<PreparedStatement> count_;
};

TEST_F(PreparedSectionTest, RecreatedTableWithReorderedColumns) {
  ExpectMatchesAdHoc();
  ASSERT_TRUE(db_.ExecuteScript(
                     "DROP TABLE t;"
                     "CREATE TABLE t (b VARCHAR(20), a BIGINT PRIMARY KEY);"
                     "INSERT INTO t VALUES ('uno', 1)")
                  .ok());
  ExpectMatchesAdHoc();
  Result<ResultSet> rs = select_->Execute({Value(int64_t{1})});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("uno"));
  // Streaming opens the same rebuilt section.
  Result<std::unique_ptr<RowStream>> stream =
      select_->ExecuteStreaming({Value(int64_t{1})});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  RowBlock block;
  ASSERT_TRUE((*stream)->Next(&block));
  ASSERT_EQ(block.rows.size(), 1u);
  EXPECT_EQ(block.rows[0][0], Value("uno"));
}

TEST_F(PreparedSectionTest, RecreatedNarrowerTableFailsWithStatus) {
  ExpectMatchesAdHoc();
  ASSERT_TRUE(db_.ExecuteScript("DROP TABLE t;"
                                "CREATE TABLE t (a BIGINT PRIMARY KEY);"
                                "INSERT INTO t VALUES (1)")
                  .ok());
  for (PreparedStatement* handle : {select_.get(), count_.get()}) {
    Result<ResultSet> rs = handle->Execute({Value(int64_t{1})});
    ASSERT_FALSE(rs.ok());
    EXPECT_TRUE(rs.status().code() == StatusCode::kNotFound ||
                rs.status().code() == StatusCode::kInvalidArgument)
        << rs.status().ToString();
    Result<std::unique_ptr<RowStream>> stream =
        handle->ExecuteStreaming({Value(int64_t{1})});
    EXPECT_FALSE(stream.ok());
  }
}

TEST_F(PreparedSectionTest, DroppedTableIsNotFoundUntilRecreated) {
  ExpectMatchesAdHoc();
  ASSERT_TRUE(db_.Execute("DROP TABLE t").ok());
  for (PreparedStatement* handle : {select_.get(), count_.get()}) {
    Result<ResultSet> rs = handle->Execute({Value(int64_t{1})});
    ASSERT_FALSE(rs.ok());
    EXPECT_EQ(rs.status().code(), StatusCode::kNotFound)
        << rs.status().ToString();
  }
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(20));"
                     "INSERT INTO t VALUES (1, 'again')")
                  .ok());
  ExpectMatchesAdHoc();
}

TEST_F(PreparedSectionTest, CreateIndexSwitchesTheNextExecutionToAProbe) {
  ASSERT_TRUE(db_.ExecuteScript(
                     "CREATE TABLE u (a BIGINT, b VARCHAR(20));"
                     "INSERT INTO u VALUES (1, 'x'), (2, 'y'), (3, 'z')")
                  .ok());
  Result<PreparedStatement> select =
      db_.Prepare("SELECT b FROM u WHERE a = ?");
  Result<PreparedStatement> count =
      db_.Prepare("SELECT COUNT(b) FROM u WHERE a = ?");
  Result<PreparedStatement> explain =
      db_.Prepare("EXPLAIN ANALYZE SELECT b FROM u WHERE a = ?");
  ASSERT_TRUE(select.ok() && count.ok() && explain.ok());
  const std::vector<Value> two = {Value(int64_t{2})};
  auto plan_text = [&]() {
    Result<ResultSet> rs = explain->Execute(two);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    std::string text;
    if (rs.ok()) {
      for (const Row& row : rs->rows) text += row[0].ToString() + "\n";
    }
    return text;
  };
  for (PreparedStatement* handle : {&*select, &*count}) {
    Result<ResultSet> rs = handle->Execute(two);
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->exec.index_probes, 0u);
  }
  EXPECT_EQ(plan_text().find("index probe"), std::string::npos);

  ASSERT_TRUE(db_.Execute("CREATE INDEX idx_u_a ON u (a)").ok());
  Result<ResultSet> rs = select->Execute(two);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->exec.index_probes, 1u);
  EXPECT_EQ(rs->exec.full_scans, 0u);
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("y"));
  Result<ResultSet> counted = count->Execute(two);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->exec.index_probes, 1u);
  EXPECT_EQ(counted->rows[0][0], Value(int64_t{1}));
  EXPECT_NE(plan_text().find("index probe"), std::string::npos);
}

TEST_F(PreparedSectionTest, DataChangesAndConfigBitsReuseTheSection) {
  ASSERT_TRUE(select_->Execute({Value(int64_t{1})}).ok());
  ASSERT_TRUE(count_->Execute({Value(int64_t{1})}).ok());
  const uint64_t before = Compiles();
  // Statistics drift: many more rows than at build time.
  std::string insert = "INSERT INTO t VALUES (3, 'x')";
  for (int i = 4; i < 500; ++i) {
    insert += ", (" + std::to_string(i) + ", 'x')";
  }
  ASSERT_TRUE(db_.Execute(insert).ok());
  Result<ResultSet> rs = select_->Execute({Value(int64_t{321})});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0], Value("x"));
  // Vectorization, dop and block size are read at open, not baked in: the
  // scan shape below runs column-wise or row-wise off one section.
  Result<PreparedStatement> scan =
      db_.Prepare("SELECT COUNT(*) FROM t WHERE b = ?");
  ASSERT_TRUE(scan.ok());
  auto run_with = [&](const ExecConfig& config) {
    ScopedExecConfig scoped(config);
    return scan->Execute({Value("x")});
  };
  Result<ResultSet> vectorized =
      run_with(ExecConfig().vectorized(true).parallelism(4));
  Result<ResultSet> scalar =
      run_with(ExecConfig().vectorized(false).block_rows(7));
  ASSERT_TRUE(vectorized.ok() && scalar.ok());
  EXPECT_EQ(vectorized->rows, scalar->rows);
  EXPECT_EQ(vectorized->rows[0][0], Value(int64_t{497}));
  EXPECT_STREQ(vectorized->exec.ExecMode(), "vectorized");
  EXPECT_STREQ(scalar->exec.ExecMode(), "scalar");
  // One build for the new handle; none for the data change.
  EXPECT_EQ(Compiles() - before, 1u);
}

}  // namespace
}  // namespace db2graph::sql
