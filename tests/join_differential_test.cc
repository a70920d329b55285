// Differential test of MiniDb2's join execution. A seeded generator
// builds 1-4 table joins over small tables holding duplicate keys, NULL
// keys, a hub key and keys of three types (BIGINT 1, DOUBLE 1.0 and
// VARCHAR '1'); the statements reach index-probe, hash, scan, ordered
// range and counted stages, and ask for projections, COUNT(*) with and
// without GROUP BY, COUNT(col), residual predicates, LEFT JOIN, DISTINCT,
// ORDER BY and LIMIT. Every statement runs prepared at dop 1/4 x block
// 1/7/1024, and again after CREATE INDEX statements change its access
// paths. The oracle is a nested-loop evaluator over the same rows that
// shares no code with the executor: results must match it as multisets,
// or in order where the statement has ORDER BY.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_config.h"
#include "sql/database.h"

namespace db2graph::sql {
namespace {

constexpr int kTables = 4;
constexpr int kStatements = 1000;
constexpr uint64_t kSeed = 20260419;

// Every table has columns k (the join key; its type varies per table),
// v BIGINT and s VARCHAR.
enum Column { kK = 0, kV = 1, kS = 2 };
const char* const kColumnNames[] = {"k", "v", "s"};
const char* const kKeyTypes[kTables] = {"BIGINT", "DOUBLE", "VARCHAR",
                                        "BIGINT"};

// One joined tuple of the oracle: a row per alias, nullptr when a LEFT
// JOIN null-extended it.
using Tuple = std::vector<const Row*>;
// A conjunct, as SQL text and as the oracle's predicate (SQL's unknown
// counts as false: statements only AND their conjuncts).
struct Pred {
  std::string sql;
  std::function<bool(const Tuple&)> eval;
};

Value Cell(const Tuple& t, int alias, int column) {
  const Row* row = t[static_cast<size_t>(alias)];
  return row == nullptr ? Value::Null() : (*row)[static_cast<size_t>(column)];
}

std::string Ref(int alias, int column) {
  return "a" + std::to_string(alias) + "." + kColumnNames[column];
}

bool SameValue(const Value& a, const Value& b) {
  return a.type() == b.type() && a.Compare(b) == 0;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].type() != b[i].type()) return a[i].type() < b[i].type();
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string RenderRows(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    out += "  (";
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i > 0 ? ", " : "") + row[i].ToSqlLiteral();
    }
    out += ")\n";
  }
  return out;
}

struct Statement {
  std::string sql;
  std::vector<Value> params;
  std::vector<int> tables;  // per alias
  std::vector<bool> left;   // per alias (alias 0 is never LEFT)
  std::vector<std::vector<Pred>> on;  // per alias: its conjuncts
  std::vector<Pred> post;             // WHERE conjuncts applied last
  enum class Shape { kProject, kCount, kGroupCount, kCountColumn } shape;
  std::vector<std::pair<int, int>> out_cols;  // (alias, column)
  bool distinct = false;
  bool ordered = false;
  int limit = -1;
};

class JoinDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(kSeed);
    for (int t = 0; t < kTables; ++t) {
      ASSERT_TRUE(db_.Execute("CREATE TABLE t" + std::to_string(t) +
                              " (k " + kKeyTypes[t] +
                              ", v BIGINT, s VARCHAR)")
                      .ok());
      const int n = 5 + static_cast<int>(rng() % 5);
      for (int r = 0; r < n; ++r) {
        Row row = {KeyValue(t, &rng), Pick(&rng, 10) == 0
                                          ? Value::Null()
                                          : Value(int64_t(rng() % 5)),
                   Pick(&rng, 8) == 0
                       ? Value::Null()
                       : Value(std::string(1, static_cast<char>(
                                                  'a' + rng() % 3)))};
        std::string sql = "INSERT INTO t" + std::to_string(t) + " VALUES (";
        for (size_t c = 0; c < row.size(); ++c) {
          sql += (c > 0 ? ", " : "") + row[c].ToSqlLiteral();
        }
        ASSERT_TRUE(db_.Execute(sql + ")").ok()) << sql;
        rows_[t].push_back(std::move(row));
      }
    }
    // Phase A access paths; the test adds more indexes for phase B.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE INDEX i0k ON t0 (k);
      CREATE ORDERED INDEX o2v ON t2 (v);
      CREATE INDEX i3k ON t3 (k);
      CREATE INDEX i3ks ON t3 (k, s);
    )sql")
                    .ok());
  }

  static size_t Pick(std::mt19937_64* rng, size_t n) { return (*rng)() % n; }

  // A key of table t's type: the hub value (0) a third of the time, NULL
  // sometimes, else a few small values that collide across types.
  static Value KeyValue(int t, std::mt19937_64* rng) {
    const size_t roll = Pick(rng, 20);
    if (roll < 3) return Value::Null();
    const int64_t n = roll < 10 ? 0 : static_cast<int64_t>(1 + roll % 3);
    switch (t) {
      case 1:
        return roll % 4 == 0 ? Value(static_cast<double>(n) + 0.5)
                             : Value(static_cast<double>(n));
      case 2:
        return roll % 5 == 0 ? Value("x") : Value(std::to_string(n));
      default:
        return Value(n);
    }
  }

  // A literal to compare a key with: any of the three types, or NULL.
  static Value KeyLiteral(std::mt19937_64* rng) {
    switch (Pick(rng, 7)) {
      case 0: return Value(int64_t{0});
      case 1: return Value(int64_t{1});
      case 2: return Value(1.0);
      case 3: return Value(2.5);
      case 4: return Value("1");
      case 5: return Value("x");
      default: return Value::Null();
    }
  }

  Statement Generate(std::mt19937_64* rng) {
    Statement st;
    const int n = 1 + static_cast<int>(Pick(rng, 4));
    st.on.resize(static_cast<size_t>(n));
    std::string from;
    bool any_left = false;
    for (int a = 0; a < n; ++a) {
      const int t = static_cast<int>(Pick(rng, kTables));
      st.tables.push_back(t);
      const bool left = a > 0 && Pick(rng, 4) == 0;
      st.left.push_back(left);
      any_left |= left;
      std::string rel = "t" + std::to_string(t);
      // Sometimes a materialized relation: a subquery over the table.
      if (a > 0 && Pick(rng, 7) == 0) rel = "(SELECT k, v, s FROM " + rel + ")";
      const std::string alias = " AS a" + std::to_string(a);
      if (a == 0) {
        from = " FROM " + rel + alias;
        continue;
      }
      std::vector<Pred>& on = st.on[static_cast<size_t>(a)];
      const int b = static_cast<int>(Pick(rng, static_cast<size_t>(a)));
      switch (Pick(rng, 6)) {
        case 0:
        case 1:
          on.push_back(Eq(a, kK, b, kK));
          break;
        case 2:
          on.push_back(Eq(a, kK, b, kK));
          on.push_back(Eq(a, kS, b, kS));
          break;
        case 3:
          on.push_back(Eq(a, kV, b, kV));
          break;
        case 4:
          on.push_back(Ge(a, kV, b, kV));
          break;
        default:
          on.push_back(ConstEq(a, KeyLiteral(rng), &st, Pick(rng, 2) == 0));
          break;
      }
      if (Pick(rng, 3) == 0) {
        on.push_back(Pick(rng, 2) == 0 ? Ne(a, kS, "b") : NotNull(a, kV));
      }
      from += (left ? " LEFT JOIN " : " JOIN ") + rel + alias + " ON " +
              Join(on);
    }
    // WHERE on the first relation: a probe candidate, or a filter.
    std::vector<Pred>& first = st.on[0];
    switch (Pick(rng, 5)) {
      case 0:
        first.push_back(ConstEq(0, KeyLiteral(rng), &st, Pick(rng, 2) == 0));
        break;
      case 1: {
        std::vector<Value> list;
        for (size_t i = 0, m = 2 + Pick(rng, 3); i < m; ++i) {
          list.push_back(KeyLiteral(rng));
        }
        if (Pick(rng, 2) == 0) list.push_back(list[0]);  // a duplicate
        first.push_back(In(0, list));
        break;
      }
      case 2:
        first.push_back(Gt(0, kV, 1));
        break;
      default:
        break;
    }
    std::vector<Pred> where = first;
    if (any_left && Pick(rng, 3) == 0) {
      st.post.push_back(IsNull(n - 1, kV));
      where.push_back(st.post.back());
    }

    std::string select;
    const size_t roll = Pick(rng, 20);
    if (roll < 8) {
      st.shape = Statement::Shape::kProject;
      for (size_t i = 0, m = 1 + Pick(rng, 3); i < m; ++i) {
        st.out_cols.push_back({static_cast<int>(Pick(rng, n)),
                               static_cast<int>(Pick(rng, 3))});
      }
      st.distinct = Pick(rng, 5) == 0;
      st.ordered = Pick(rng, 5) < 2;
      if (Pick(rng, 4) == 0) st.limit = static_cast<int>(Pick(rng, 6));
      std::vector<std::string> cols;
      for (auto [a, c] : st.out_cols) cols.push_back(Ref(a, c));
      select = std::string("SELECT ") + (st.distinct ? "DISTINCT " : "") +
               JoinText(cols, ", ");
      std::string tail;
      if (st.ordered) tail += " ORDER BY " + JoinText(cols, ", ");
      if (st.limit >= 0) tail += " LIMIT " + std::to_string(st.limit);
      st.sql = select + from + Where(where) + tail;
      return st;
    }
    if (roll < 13) {
      st.shape = Statement::Shape::kCount;
      select = "SELECT COUNT(*)";
    } else if (roll < 17) {
      st.shape = Statement::Shape::kGroupCount;
      st.out_cols.push_back({static_cast<int>(Pick(rng, n)), kV});
      const std::string key = Ref(st.out_cols[0].first, kV);
      st.sql = "SELECT " + key + ", COUNT(*)" + from + Where(where) +
               " GROUP BY " + key;
      return st;
    } else {
      st.shape = Statement::Shape::kCountColumn;
      st.out_cols.push_back({static_cast<int>(Pick(rng, n)), kS});
      select = "SELECT COUNT(" + Ref(st.out_cols[0].first, kS) + ")";
    }
    st.sql = select + from + Where(where);
    return st;
  }

  static std::string JoinText(const std::vector<std::string>& parts,
                              const std::string& sep) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      out += (i > 0 ? sep : "") + parts[i];
    }
    return out;
  }
  static std::string Join(const std::vector<Pred>& preds) {
    std::vector<std::string> parts;
    for (const Pred& p : preds) parts.push_back(p.sql);
    return JoinText(parts, " AND ");
  }
  static std::string Where(const std::vector<Pred>& preds) {
    return preds.empty() ? "" : " WHERE " + Join(preds);
  }

  static Pred Eq(int a, int ca, int b, int cb) {
    return {Ref(a, ca) + " = " + Ref(b, cb), [=](const Tuple& t) {
              Value x = Cell(t, a, ca);
              Value y = Cell(t, b, cb);
              return !x.is_null() && !y.is_null() && x.Compare(y) == 0;
            }};
  }
  static Pred Ge(int a, int ca, int b, int cb) {
    return {Ref(a, ca) + " >= " + Ref(b, cb), [=](const Tuple& t) {
              Value x = Cell(t, a, ca);
              Value y = Cell(t, b, cb);
              return !x.is_null() && !y.is_null() && x.Compare(y) >= 0;
            }};
  }
  // a.k = literal, inlined or bound to a '?' parameter.
  static Pred ConstEq(int a, Value lit, Statement* st, bool as_param) {
    std::string rhs = lit.ToSqlLiteral();
    if (as_param) {
      st->params.push_back(lit);
      rhs = "?";
    }
    return {Ref(a, kK) + " = " + rhs, [=](const Tuple& t) {
              Value x = Cell(t, a, kK);
              return !x.is_null() && !lit.is_null() && x.Compare(lit) == 0;
            }};
  }
  static Pred In(int a, std::vector<Value> list) {
    std::vector<std::string> parts;
    for (const Value& v : list) parts.push_back(v.ToSqlLiteral());
    return {Ref(a, kK) + " IN (" + JoinText(parts, ", ") + ")",
            [=](const Tuple& t) {
              Value x = Cell(t, a, kK);
              if (x.is_null()) return false;
              for (const Value& v : list) {
                if (!v.is_null() && x.Compare(v) == 0) return true;
              }
              return false;
            }};
  }
  static Pred Gt(int a, int c, int64_t bound) {
    return {Ref(a, c) + " > " + std::to_string(bound), [=](const Tuple& t) {
              Value x = Cell(t, a, c);
              return !x.is_null() && x.Compare(Value(bound)) > 0;
            }};
  }
  static Pred Ne(int a, int c, const std::string& s) {
    return {Ref(a, c) + " <> '" + s + "'", [=](const Tuple& t) {
              Value x = Cell(t, a, c);
              return !x.is_null() && x.Compare(Value(s)) != 0;
            }};
  }
  static Pred NotNull(int a, int c) {
    return {Ref(a, c) + " IS NOT NULL",
            [=](const Tuple& t) { return !Cell(t, a, c).is_null(); }};
  }
  static Pred IsNull(int a, int c) {
    return {Ref(a, c) + " IS NULL",
            [=](const Tuple& t) { return Cell(t, a, c).is_null(); }};
  }

  // The oracle: nested loops over every combination of rows.
  std::vector<Row> Evaluate(const Statement& st) const {
    std::vector<Tuple> joined;
    Tuple t(st.tables.size(), nullptr);
    std::function<void(size_t)> visit = [&](size_t a) {
      if (a == st.tables.size()) {
        for (const Pred& p : st.post) {
          if (!p.eval(t)) return;
        }
        joined.push_back(t);
        return;
      }
      bool matched = false;
      for (const Row& row : rows_[st.tables[a]]) {
        t[a] = &row;
        bool pass = true;
        for (const Pred& p : st.on[a]) pass = pass && p.eval(t);
        if (!pass) continue;
        matched = true;
        visit(a + 1);
      }
      if (!matched && st.left[a]) {
        t[a] = nullptr;
        visit(a + 1);
      }
    };
    visit(0);

    std::vector<Row> out;
    switch (st.shape) {
      case Statement::Shape::kProject:
        for (const Tuple& j : joined) {
          Row row;
          for (auto [a, c] : st.out_cols) row.push_back(Cell(j, a, c));
          if (st.distinct &&
              std::any_of(out.begin(), out.end(),
                          [&](const Row& r) { return SameRow(r, row); })) {
            continue;
          }
          out.push_back(std::move(row));
        }
        // Without ORDER BY a LIMIT keeps any rows: Mismatch checks those
        // against the whole result.
        if (st.ordered) {
          std::stable_sort(out.begin(), out.end(), OrderLess);
          if (st.limit >= 0 && out.size() > static_cast<size_t>(st.limit)) {
            out.resize(static_cast<size_t>(st.limit));
          }
        }
        return out;
      case Statement::Shape::kCount:
        return {{Value(static_cast<int64_t>(joined.size()))}};
      case Statement::Shape::kCountColumn: {
        int64_t n = 0;
        for (const Tuple& j : joined) {
          auto [a, c] = st.out_cols[0];
          n += Cell(j, a, c).is_null() ? 0 : 1;
        }
        return {{Value(n)}};
      }
      case Statement::Shape::kGroupCount: {
        std::vector<Row> groups;
        for (const Tuple& j : joined) {
          auto [a, c] = st.out_cols[0];
          Value key = Cell(j, a, c);
          auto it = std::find_if(groups.begin(), groups.end(),
                                 [&](const Row& g) {
                                   return g[0].Compare(key) == 0;
                                 });
          if (it == groups.end()) {
            groups.push_back({key, Value(int64_t{1})});
          } else {
            (*it)[1] = Value((*it)[1].as_int() + 1);
          }
        }
        return groups;
      }
    }
    return out;
  }

  // ORDER BY semantics: NULL first, then by value.
  static bool OrderLess(const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }

  // Empty when `actual` is what the oracle allows for `st`.
  static std::string Mismatch(const Statement& st, std::vector<Row> expected,
                              std::vector<Row> actual) {
    bool ok;
    if (st.ordered) {
      ok = expected.size() == actual.size() &&
           std::equal(expected.begin(), expected.end(), actual.begin(),
                      SameRow);
    } else if (st.limit >= 0) {
      // Any `limit` rows of the result: a sub-multiset of that size.
      ok = actual.size() ==
           std::min(expected.size(), static_cast<size_t>(st.limit));
      std::vector<Row> rest = expected;
      for (size_t i = 0; ok && i < actual.size(); ++i) {
        auto it = std::find_if(rest.begin(), rest.end(), [&](const Row& r) {
          return SameRow(r, actual[i]);
        });
        ok = it != rest.end();
        if (ok) rest.erase(it);
      }
    } else {
      std::sort(expected.begin(), expected.end(), RowLess);
      std::sort(actual.begin(), actual.end(), RowLess);
      ok = expected.size() == actual.size() &&
           std::equal(expected.begin(), expected.end(), actual.begin(),
                      SameRow);
    }
    if (ok) return "";
    return "expected:\n" + RenderRows(expected) + "actual:\n" +
           RenderRows(actual);
  }

  std::string DumpTables() const {
    std::string out;
    for (int t = 0; t < kTables; ++t) {
      out += "t" + std::to_string(t) + " (k " + kKeyTypes[t] +
             ", v BIGINT, s VARCHAR):\n" + RenderRows(rows_[t]);
    }
    return out;
  }

  Database db_;
  std::vector<Row> rows_[kTables];
};

TEST_F(JoinDifferentialTest, PreparedJoinsMatchTheOracle) {
  std::mt19937_64 rng(kSeed + 1);
  std::vector<Statement> statements;
  std::vector<PreparedStatement> prepared;
  for (int i = 0; i < kStatements; ++i) {
    statements.push_back(Generate(&rng));
    Result<PreparedStatement> p = db_.Prepare(statements.back().sql);
    ASSERT_TRUE(p.ok()) << p.status().ToString() << "\n"
                        << statements.back().sql;
    prepared.push_back(std::move(*p));
  }

  // Access paths the statements reached, read from their EXPLAIN.
  std::map<std::string, int> paths;
  auto tally_paths = [&]() {
    for (const Statement& st : statements) {
      Result<PreparedStatement> explain = db_.Prepare("EXPLAIN " + st.sql);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      Result<ResultSet> plan = explain->Execute(st.params);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (const Row& line : plan->rows) {
        const std::string& text = line[0].as_string();
        for (const char* path : {"index probe", "hash candidate",
                                 "range scan", " scan]", "materialized",
                                 ", counted"}) {
          if (text.find(path) != std::string::npos) ++paths[path];
        }
      }
    }
  };

  int failures = 0;
  auto run_all = [&](const char* phase) {
    for (size_t i = 0; i < statements.size() && failures < 5; ++i) {
      const Statement& st = statements[i];
      const std::vector<Row> expected = Evaluate(st);
      for (int dop : {1, 4}) {
        for (size_t block : {size_t{1}, size_t{7}, size_t{1024}}) {
          ScopedExecConfig config(
              ExecConfig().parallelism(dop).block_rows(block));
          Result<ResultSet> rs = prepared[i].Execute(st.params);
          std::string diff =
              rs.ok() ? Mismatch(st, expected, rs->rows)
                      : "error: " + rs.status().ToString() + "\n";
          if (!diff.empty()) {
            ++failures;
            std::string params;
            for (const Value& p : st.params) params += p.ToSqlLiteral() + " ";
            ADD_FAILURE() << phase << " dop=" << dop << " block=" << block
                          << "\n"
                          << st.sql << "\nparams: " << params << "\n"
                          << diff << DumpTables();
          }
        }
      }
    }
  };

  tally_paths();
  run_all("phase A");
  // New indexes turn scans and hash joins into probes and range scans;
  // every prepared statement recompiles once and must still agree.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE INDEX i1k ON t1 (k);
    CREATE INDEX i2k ON t2 (k);
    CREATE INDEX i1v ON t1 (v);
    CREATE ORDERED INDEX o3v ON t3 (v);
  )sql")
                  .ok());
  tally_paths();
  run_all("phase B");

  for (const char* path : {"index probe", "hash candidate", "range scan",
                           " scan]", "materialized", ", counted"}) {
    EXPECT_GT(paths[path], 0) << "no statement reached: " << path;
  }
}

}  // namespace
}  // namespace db2graph::sql
