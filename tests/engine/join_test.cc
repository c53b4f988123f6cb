#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "engine/database.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE emp (id INTEGER NOT NULL, dept INTEGER, name VARCHAR(20), sal INTEGER NOT NULL);
      CREATE TABLE dept (id INTEGER NOT NULL, dname VARCHAR(20) NOT NULL);
      INSERT INTO emp VALUES (1, 10, 'ann', 100), (2, 10, 'bob', 200),
                             (3, 20, 'cat', 300), (4, NULL, 'dan', 250);
      INSERT INTO dept VALUES (10, 'eng'), (20, 'ops'), (30, 'hr');
    )"));
  }

  std::vector<Row> Rows(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << sql;
    return r.ok() ? r.value().rows : std::vector<Row>{};
  }

  Database db_;
};

TEST_F(JoinTest, InnerHashJoin) {
  auto rows = Rows(
      "SELECT name, dname FROM emp, dept WHERE dept = dept.id ORDER BY name");
  ASSERT_EQ(rows.size(), 3u);  // dan has NULL dept
  EXPECT_EQ(rows[0][1].string_value(), "eng");
}

TEST_F(JoinTest, JoinOnSyntax) {
  auto rows =
      Rows("SELECT name FROM emp JOIN dept ON emp.dept = dept.id ORDER BY name");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(JoinTest, LeftJoinPadsNulls) {
  auto rows = Rows(
      "SELECT name, dname FROM emp LEFT JOIN dept ON emp.dept = dept.id "
      "ORDER BY name");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[3][1].is_null());  // dan
}

TEST_F(JoinTest, LeftJoinWithResidual) {
  // Residual restricts matches but keeps unmatched left rows (TPC-H Q13).
  auto rows = Rows(
      "SELECT name, dname FROM emp LEFT JOIN dept ON emp.dept = dept.id AND "
      "dname <> 'eng' ORDER BY name");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[0][1].is_null());  // ann's match suppressed
  EXPECT_EQ(rows[2][1].string_value(), "ops");
}

TEST_F(JoinTest, CrossJoinWithResidualPredicate) {
  auto rows = Rows(
      "SELECT e1.name, e2.name FROM emp e1, emp e2 WHERE e1.sal < e2.sal AND "
      "e1.id <> e2.id");
  EXPECT_EQ(rows.size(), 6u);
}

TEST_F(JoinTest, SelfJoinAliases) {
  auto rows = Rows(
      "SELECT e1.name FROM emp e1, emp e2 WHERE e1.dept = e2.dept AND "
      "e1.id <> e2.id ORDER BY e1.name");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].string_value(), "ann");
}

TEST_F(JoinTest, ThreeWayJoin) {
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE loc (dept INTEGER NOT NULL, city VARCHAR(10) NOT NULL);
    INSERT INTO loc VALUES (10, 'zrh'), (20, 'sfo');
  )"));
  auto rows = Rows(
      "SELECT name, city FROM emp, dept, loc WHERE emp.dept = dept.id AND "
      "dept.id = loc.dept ORDER BY name");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(JoinTest, UncorrelatedInSubquery) {
  auto rows = Rows(
      "SELECT name FROM emp WHERE dept IN (SELECT id FROM dept WHERE dname = "
      "'eng') ORDER BY name");
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(JoinTest, NotInWithoutNulls) {
  auto rows = Rows(
      "SELECT dname FROM dept WHERE id NOT IN (SELECT dept FROM emp WHERE "
      "dept IS NOT NULL) ORDER BY dname");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "hr");
}

TEST_F(JoinTest, NotInWithNullsYieldsEmpty) {
  // dept list contains NULL -> NOT IN is never true (SQL three-valued logic).
  auto rows =
      Rows("SELECT dname FROM dept WHERE id NOT IN (SELECT dept FROM emp)");
  EXPECT_EQ(rows.size(), 0u);
}

TEST_F(JoinTest, ExistsSemiJoin) {
  auto rows = Rows(
      "SELECT dname FROM dept WHERE EXISTS (SELECT * FROM emp WHERE emp.dept "
      "= dept.id) ORDER BY dname");
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(JoinTest, NotExistsAntiJoin) {
  auto rows = Rows(
      "SELECT dname FROM dept WHERE NOT EXISTS (SELECT * FROM emp WHERE "
      "emp.dept = dept.id)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "hr");
}

TEST_F(JoinTest, ExistsWithNonEqualityResidual) {
  // The TPC-H Q21 shape: equality key plus <> residual.
  auto rows = Rows(
      "SELECT e1.name FROM emp e1 WHERE EXISTS (SELECT * FROM emp e2 WHERE "
      "e2.dept = e1.dept AND e2.id <> e1.id) ORDER BY e1.name");
  ASSERT_EQ(rows.size(), 2u);
}

TEST_F(JoinTest, CorrelatedScalarAggUnnested) {
  auto rows = Rows(
      "SELECT name FROM emp e1 WHERE sal > (SELECT AVG(e2.sal) FROM emp e2 "
      "WHERE e2.dept = e1.dept) ORDER BY name");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "bob");
}

TEST_F(JoinTest, CorrelatedScalarAggEmptyGroupDropsRow) {
  // No co-dept rows -> NULL comparison -> filtered (dan, NULL dept).
  auto rows = Rows(
      "SELECT name FROM emp e1 WHERE sal >= (SELECT MIN(e2.sal) FROM emp e2 "
      "WHERE e2.dept = e1.dept)");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(JoinTest, UncorrelatedScalarSubqueryIsInitPlan) {
  uint64_t before = db_.stats()->initplan_execs;
  auto rows =
      Rows("SELECT name FROM emp WHERE sal > (SELECT AVG(sal) FROM emp)");
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(db_.stats()->initplan_execs, before + 1);  // evaluated once
}

TEST_F(JoinTest, CorrelatedExistsFallbackStillCorrect) {
  // Non-equality-only correlation cannot be unnested; per-row fallback.
  auto rows = Rows(
      "SELECT name FROM emp e1 WHERE EXISTS (SELECT * FROM emp e2 WHERE "
      "e2.sal > e1.sal + 50)");
  // ann (100 -> 200/250/300), bob (200 -> 250/300); 250 and 300 have no
  // strictly-larger sal + 50.
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_GT(db_.stats()->subquery_execs, 0u);
}

TEST_F(JoinTest, ScalarSubqueryMultipleRowsIsError) {
  auto r = db_.Execute("SELECT (SELECT id FROM dept) FROM emp");
  EXPECT_FALSE(r.ok());
}

TEST_F(JoinTest, TupleInSubquery) {
  auto rows = Rows(
      "SELECT name FROM emp WHERE (dept, sal) IN (SELECT 10, 100 FROM dept) "
      "ORDER BY name");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "ann");
}

// -- Hashed operators, serial and parallel -----------------------------------

/// Every case runs twice: serially, and with 4 threads under a 2-row
/// parallel gate, so even these few-row tables split into worker chunks.
/// Both runs must agree byte for byte, rows_joined included. An EXPLAIN
/// (ANALYZE) of the parallel setting then shows whether the operator under
/// test got workers: hash joins, and aggregates without DISTINCT over two or
/// more rows, do; SELECT DISTINCT, the null-aware anti join and DISTINCT
/// aggregates stay serial by design.
class HashedOperatorTest : public ::testing::Test {
 protected:
  /// The operator a case is about: a pattern for its EXPLAIN line (see
  /// PlanLineMatches) and whether the parallel run gives it workers.
  struct Operator {
    const char* line;
    bool parallel;
  };
  static constexpr Operator kJoin{"*HashJoin*", true};
  static constexpr Operator kNullAwareAnti{"*HashJoin ANTI*null-aware*", false};
  /// An uncorrelated IN set is probed inside prb's scan filter, which stays
  /// serial because its predicate holds a sub-plan.
  static constexpr Operator kInSet{"*Scan prb (filtered)*", false};
  static constexpr Operator kAggregate{"*Aggregate*", true};
  static constexpr Operator kSerialAggregate{"*Aggregate*", false};
  static constexpr Operator kDistinctAggregate{"*Aggregate*DISTINCT*", false};
  static constexpr Operator kDistinct{"*Distinct*", false};

  /// Rows of grp, generated: 160 rows whose g runs through the 45 values
  /// 7i mod 45 — nine of them first appear after the first of four worker
  /// chunks — plus NULL on every tenth row; v is NULL on every 13th row and
  /// h on every seventh.
  static constexpr int kGrpRows = 160;
  static Value GrpG(int i) {
    return i % 10 == 4 ? Value::Null() : Value::Int((i * 7) % 45);
  }
  static Value GrpV(int i) {
    return i % 13 == 0 ? Value::Null() : Value::Int(i);
  }
  static Value GrpH(int i) {
    return i % 7 == 0 ? Value::Null() : Value::Str("h" + std::to_string(i % 3));
  }
  static constexpr int kFactRows = 64;
  /// Aggregates over fact's scans: a Scan or IndexScan line, and the
  /// Aggregate above it.
  static constexpr Operator kFactScan{"*Scan fact*", true};
  static constexpr Operator kFactIndexScan{"*IndexScan fact*", false};

  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE prb (k INTEGER, j INTEGER, tag VARCHAR(4));
      CREATE TABLE bld (k INTEGER, j INTEGER, seq INTEGER);
      CREATE TABLE dbld (k DECIMAL(10,2), seq INTEGER);
      CREATE TABLE ebld (k INTEGER, seq INTEGER);
      CREATE TABLE dst (g INTEGER, v INTEGER);
      CREATE TABLE grp (g INTEGER, v INTEGER, h VARCHAR(4));
      INSERT INTO prb VALUES (1, 1, 'p1'), (NULL, 1, 'pn'), (2, 2, 'p2'),
                             (3, 3, 'p3');
      INSERT INTO bld VALUES (1, 1, 10), (2, 9, 20), (1, 2, 30), (NULL, 1, 40),
                             (1, 1, 50), (2, 2, 60), (5, 1, 70);
      INSERT INTO dbld VALUES (1.00, 1), (2.50, 2), (2.00, 3);
      INSERT INTO dst VALUES (2, 5), (1, 5), (1, 5), (1, NULL), (2, NULL),
                             (NULL, 7), (1, 7), (NULL, 7), (2, 5), (3, NULL);
    )"));
    std::string grp = "INSERT INTO grp VALUES ";
    for (int i = 0; i < kGrpRows; ++i) {
      if (i > 0) grp += ", ";
      grp += "(" + GrpG(i).ToString() + ", " + GrpV(i).ToString() + ", " +
             (GrpH(i).is_null() ? "NULL" : "'" + GrpH(i).ToString() + "'") +
             ")";
    }
    ASSERT_OK(db_.Execute(grp));
    // fact: 64 rows in 4 ttid-like hash partitions with an index on g.
    // t = i % 4 + 1; g = i % 5, NULL on every ninth row; v = i, NULL on
    // every seventh; d cycles through 1.5, 0.25 and 0.125 (scales 1 to 3);
    // s = "s" + (5i mod 7); dt = 1995-01-01 plus (11i mod 28) days.
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE fact (t INTEGER NOT NULL, g INTEGER, v INTEGER,
                         d DECIMAL(10,3), s VARCHAR(4), dt DATE)
        PARTITION BY HASH (t) PARTITIONS 4;
      CREATE INDEX fact_g ON fact (g);
    )"));
    std::string fact = "INSERT INTO fact VALUES ";
    const char* const kD[] = {"1.5", "0.25", "0.125"};
    for (int i = 0; i < kFactRows; ++i) {
      if (i > 0) fact += ", ";
      const int day = 1 + (i * 11) % 28;
      fact += "(" + std::to_string(i % 4 + 1) + ", " +
              (i % 9 == 8 ? "NULL" : std::to_string(i % 5)) + ", " +
              (i % 7 == 6 ? "NULL" : std::to_string(i)) + ", " + kD[i % 3] +
              ", 's" + std::to_string((i * 5) % 7) + "', DATE '1995-01-" +
              (day < 10 ? "0" : "") + std::to_string(day) + "')";
    }
    ASSERT_OK(db_.Execute(fact));
  }

  void SetOptions(int threads, size_t min_rows, bool decorrelate = true) {
    PlannerOptions opts = db_.planner_options();
    opts.max_threads = threads;
    opts.min_parallel_rows = min_rows;
    opts.decorrelate_subqueries = decorrelate;
    db_.set_planner_options(opts);
  }

  static std::vector<std::string> Lines(const std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += ",";
        line += row[i].ToString();
      }
      out.push_back(line);
    }
    return out;
  }

  /// Result rows as comma-joined cells, in result order; `rows_joined`
  /// (optional) receives the join pairs the serial run evaluated.
  std::vector<std::string> Rows(const std::string& sql, Operator op,
                                uint64_t* rows_joined = nullptr) {
    SCOPED_TRACE(sql);
    SetOptions(1, 4096);
    StatsScope serial_scope(db_.stats());
    auto serial = db_.Execute(sql);
    const ExecStats serial_stats = serial_scope.Delta();
    SetOptions(4, 2);
    StatsScope par_scope(db_.stats());
    auto par = db_.Execute(sql);
    const ExecStats par_stats = par_scope.Delta();
    auto sel = sql::ParseSelect(sql);
    EXPECT_OK(sel.status());
    auto analyze = sel.ok() ? db_.ExplainAnalyzeSelect(*sel.value())
                            : Result<std::string>(sel.status());
    SetOptions(1, 4096);
    EXPECT_OK(serial.status());
    EXPECT_OK(par.status());
    EXPECT_OK(analyze.status());
    if (!serial.ok() || !par.ok() || !analyze.ok()) return {};
    EXPECT_EQ(CanonRows(serial.value().rows), CanonRows(par.value().rows));
    EXPECT_EQ(serial_stats.rows_joined, par_stats.rows_joined);
    if (rows_joined != nullptr) *rows_joined = serial_stats.rows_joined;
    const std::string line = OperatorLine(analyze.value(), op.line);
    EXPECT_FALSE(line.empty()) << "no " << op.line << " in\n"
                               << analyze.value();
    EXPECT_EQ(line.find(" workers=") != std::string::npos, op.parallel)
        << line;
    return Lines(serial.value().rows);
  }

  /// The rows of `sql` planned without sub-query decorrelation: the
  /// reference an IN / NOT IN case's decorrelated plan must reproduce.
  std::vector<std::string> Undecorrelated(const std::string& sql) {
    SetOptions(1, 4096, /*decorrelate=*/false);
    auto rs = db_.Execute(sql);
    SetOptions(1, 4096);
    EXPECT_OK(rs.status());
    return rs.ok() ? Lines(rs.value().rows) : std::vector<std::string>{};
  }

  /// Whether the first Aggregate of `sql`'s plan folds a scan in place.
  bool AggregatesInPlace(const std::string& sql) {
    auto sel = sql::ParseSelect(sql);
    EXPECT_OK(sel.status());
    if (!sel.ok()) return false;
    Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
    auto plan = planner.PlanSelect(*sel.value());
    EXPECT_OK(plan.status());
    const Plan* p = plan.ok() ? plan.value().get() : nullptr;
    while (p != nullptr && p->kind != Plan::Kind::kAggregate) {
      p = p->left.get();
    }
    return p != nullptr && AggregatesScanInPlace(*p);
  }

  /// The first line of an EXPLAIN rendering that matches `pattern`.
  static std::string OperatorLine(const std::string& explain,
                                  const std::string& pattern) {
    size_t start = 0;
    while (start < explain.size()) {
      size_t end = explain.find('\n', start);
      if (end == std::string::npos) end = explain.size();
      std::string line = explain.substr(start, end - start);
      if (PlanLineMatches(pattern, line)) return line;
      start = end + 1;
    }
    return "";
  }

  using Strings = std::vector<std::string>;
  Database db_;
};

TEST_F(HashedOperatorTest, MatchesComeInBuildRowOrder) {
  uint64_t joined = 0;
  EXPECT_EQ(Rows("SELECT p.tag, b.seq FROM prb p JOIN bld b ON p.k = b.k",
                 kJoin, &joined),
            (Strings{"p1,10", "p1,30", "p1,50", "p2,20", "p2,60"}));
  EXPECT_EQ(joined, 5u);  // key-equal candidates only
}

TEST_F(HashedOperatorTest, NullKeysOnEitherSide) {
  // pn's NULL key and bld's (NULL, 1, 40) row never match anything.
  EXPECT_EQ(
      Rows("SELECT p.tag, b.seq FROM prb p LEFT JOIN bld b ON p.k = b.k",
           kJoin),
      (Strings{"p1,10", "p1,30", "p1,50", "pn,NULL", "p2,20", "p2,60",
               "p3,NULL"}));
  EXPECT_EQ(Rows("SELECT p.tag FROM prb p WHERE EXISTS "
                 "(SELECT * FROM bld b WHERE b.k = p.k)",
                 kJoin),
            (Strings{"p1", "p2"}));
  EXPECT_EQ(Rows("SELECT p.tag FROM prb p WHERE NOT EXISTS "
                 "(SELECT * FROM bld b WHERE b.k = p.k)",
                 kJoin),
            (Strings{"pn", "p3"}));
}

TEST_F(HashedOperatorTest, IntKeyMatchesEqualDecimal) {
  EXPECT_EQ(Rows("SELECT p.tag, d.seq FROM prb p JOIN dbld d ON p.k = d.k",
                 kJoin),
            (Strings{"p1,1", "p2,3"}));
}

TEST_F(HashedOperatorTest, TwoColumnKeyNeedsBothToAgree) {
  // (1, 2, 30) and (2, 9, 20) agree with a probe row on k only, (5, 1, 70)
  // and (NULL, 1, 40) on j only.
  uint64_t joined = 0;
  EXPECT_EQ(Rows("SELECT p.tag, b.seq FROM prb p JOIN bld b "
                 "ON p.k = b.k AND p.j = b.j",
                 kJoin, &joined),
            (Strings{"p1,10", "p1,50", "p2,60"}));
  EXPECT_EQ(joined, 3u);
}

TEST_F(HashedOperatorTest, EmptyBuildInput) {
  EXPECT_EQ(Rows("SELECT p.tag, e.seq FROM prb p JOIN ebld e ON p.k = e.k",
                 kJoin),
            Strings{});
  EXPECT_EQ(
      Rows("SELECT p.tag, e.seq FROM prb p LEFT JOIN ebld e ON p.k = e.k",
           kJoin),
      (Strings{"p1,NULL", "pn,NULL", "p2,NULL", "p3,NULL"}));
  EXPECT_EQ(Rows("SELECT p.tag FROM prb p WHERE NOT EXISTS "
                 "(SELECT * FROM ebld e WHERE e.k = p.k)",
                 kJoin),
            (Strings{"p1", "pn", "p2", "p3"}));
}

/// Reference for grp grouped by `key` (a row number's rendered key): the
/// groups in first-appearance order with COUNT(*), COUNT(v), SUM(v), MIN(v)
/// and MAX(v).
std::vector<std::string> GrpReference(
    int rows, const std::function<std::string(int)>& key,
    const std::function<Value(int)>& value) {
  struct Group {
    int64_t rows = 0, count = 0, sum = 0, min = 0, max = 0;
  };
  std::vector<std::string> order;
  std::map<std::string, Group> groups;
  for (int i = 0; i < rows; ++i) {
    const std::string k = key(i);
    if (groups.find(k) == groups.end()) order.push_back(k);
    Group& acc = groups[k];
    acc.rows++;
    if (value(i).is_null()) continue;
    const int64_t v = value(i).int_value();
    acc.min = acc.count == 0 ? v : std::min(acc.min, v);
    acc.max = acc.count == 0 ? v : std::max(acc.max, v);
    acc.count++;
    acc.sum += v;
  }
  std::vector<std::string> out;
  for (const std::string& k : order) {
    const Group& acc = groups[k];
    const auto agg = [&acc](int64_t v) {
      return acc.count > 0 ? std::to_string(v) : std::string("NULL");
    };
    out.push_back(k + "," + std::to_string(acc.rows) + "," +
                  std::to_string(acc.count) + "," + agg(acc.sum) + "," +
                  agg(acc.min) + "," + agg(acc.max));
  }
  return out;
}

TEST_F(HashedOperatorTest, GroupsMergeAcrossChunksInFirstAppearanceOrder) {
  const Strings by_g = GrpReference(
      kGrpRows, [](int i) { return GrpG(i).ToString(); }, GrpV);
  ASSERT_EQ(by_g.size(), 46u);  // more groups than a fresh directory holds
  EXPECT_EQ(Rows("SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) "
                 "FROM grp GROUP BY g",
                 kAggregate),
            by_g);
  // A two-column key with a string component.
  EXPECT_EQ(
      Rows("SELECT h, g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) "
           "FROM grp GROUP BY h, g",
           kAggregate),
      GrpReference(
          kGrpRows,
          [](int i) { return GrpH(i).ToString() + "," + GrpG(i).ToString(); },
          GrpV));
  // AVG divides partial sums merged in chunk order.
  EXPECT_EQ(Rows("SELECT g, AVG(v) FROM grp GROUP BY g", kAggregate).size(),
            46u);
}

TEST_F(HashedOperatorTest, AggregateWithoutGroupBy) {
  EXPECT_EQ(Rows("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) "
                 "FROM grp WHERE g > 1000",
                 kSerialAggregate),
            (Strings{"0,0,NULL,NULL,NULL,NULL"}));
  EXPECT_EQ(Rows("SELECT COUNT(*), SUM(seq) FROM ebld", kSerialAggregate),
            (Strings{"0,NULL"}));
  // grp's v: 0..159 without the multiples of 13 (0, 13, ..., 156).
  EXPECT_EQ(Rows("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) FROM grp",
                 kAggregate),
            (Strings{"160,147,11706,1,159"}));
}

// An Aggregate directly over a Scan or IndexScan folds the scan's kept rows
// where they lie in the pinned table version; over a derived table it reads
// the Project's batch. Both inputs go through one kernel and must agree, for
// filtered, partition-pruned and index scans, NULL group keys, every
// aggregate kind and empty inputs.
TEST_F(HashedOperatorTest, AggregatesReadScansInPlaceLikeBatches) {
  struct Case {
    const char* select;
    const char* where;
    const char* group_by;
    Operator in_place;  // the operator the in-place run is about
    Operator batch;     // the batch run's Aggregate
  };
  const char* kAll =
      "g, COUNT(*), COUNT(v), COUNT(g), SUM(v), AVG(v), MIN(v), MAX(v), "
      "SUM(d), AVG(d), MIN(s), MAX(s), MIN(dt), MAX(dt)";
  const char* kNoGroup = "COUNT(*), SUM(v), MIN(s), MAX(dt), AVG(d)";
  const Case cases[] = {
      {kAll, "", " GROUP BY g", kAggregate, kAggregate},
      {kAll, " WHERE v > 10", " GROUP BY g", kFactScan, kAggregate},
      {kAll, " WHERE t IN (1, 3)", " GROUP BY g", kFactScan, kAggregate},
      {kAll, " WHERE g = 3", " GROUP BY g", kFactIndexScan, kAggregate},
      {kAll, " WHERE g IN (1, 4) AND v < 40", " GROUP BY g", kFactIndexScan,
       kAggregate},
      {"s, g, SUM(d), MAX(dt)", " WHERE t = 2", " GROUP BY s, g", kAggregate,
       kAggregate},
      {"g, COUNT(*), SUM(v)", " WHERE v > 1000", " GROUP BY g",
       kSerialAggregate, kSerialAggregate},
      {kNoGroup, " WHERE g = 99", "", kSerialAggregate, kSerialAggregate},
      {kNoGroup, " WHERE t IN (2, 4)", "", kAggregate, kAggregate},
      {"g, COUNT(DISTINCT t), SUM(DISTINCT v), COUNT(v)", " WHERE v > 3",
       " GROUP BY g", kDistinctAggregate, kDistinctAggregate},
  };
  for (const Case& c : cases) {
    const std::string tail = std::string(c.where) + c.group_by;
    const std::string in_place =
        std::string("SELECT ") + c.select + " FROM fact" + tail;
    const std::string batch = std::string("SELECT ") + c.select +
                              " FROM (SELECT * FROM fact) fact" + tail;
    EXPECT_TRUE(AggregatesInPlace(in_place)) << in_place;
    EXPECT_FALSE(AggregatesInPlace(batch)) << batch;
    EXPECT_EQ(Rows(in_place, c.in_place), Rows(batch, c.batch)) << in_place;
  }
}

// Hand-checked values of the in-place fold: COUNT(col) skips NULLs, AVG is
// computed at DECIMAL's scale, a DECIMAL SUM takes its largest input scale,
// MIN and MAX order strings and dates, and NULL is a group of its own.
TEST_F(HashedOperatorTest, InPlaceFoldValues) {
  EXPECT_EQ(Rows("SELECT COUNT(*), COUNT(v), COUNT(g), SUM(v), AVG(v) "
                 "FROM fact",
                 kAggregate),
            (Strings{"64,55,57,1710,31.090909"}));
  // 22 x 1.5 + 21 x 0.25 (+ 21 x 0.125): scales 1 and 2 sum at scale 2.
  EXPECT_EQ(Rows("SELECT SUM(d) FROM fact WHERE d > 0.2", kFactScan),
            (Strings{"38.25"}));
  EXPECT_EQ(Rows("SELECT SUM(d) FROM fact", kAggregate), (Strings{"40.875"}));
  EXPECT_EQ(Rows("SELECT MIN(s), MAX(s), MIN(dt), MAX(dt) FROM fact",
                 kAggregate),
            (Strings{"s0,s6,1995-01-01,1995-01-28"}));
  // g is NULL on rows 8, 17, ..., 62 (g would be 3, 2, 1, 0, 4, 3, 2):
  // one group, first seen at row 8.
  EXPECT_EQ(Rows("SELECT g, COUNT(*) FROM fact GROUP BY g", kAggregate),
            (Strings{"0,12", "1,12", "2,11", "3,11", "4,11", "NULL,7"}));
}

// SUM over INT fails with the first overflow in both kinds of input, at
// one thread and from four workers, whose partials overflow when merged.
TEST_F(HashedOperatorTest, FirstIntOverflowIsTheError) {
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE ovf (g INTEGER, v INTEGER);
    INSERT INTO ovf VALUES (1, 4611686018427387904), (1, 4611686018427387904),
                           (2, 1), (1, 4611686018427387904);
  )"));
  for (int threads : {1, 4}) {
    SetOptions(threads, 2);
    for (const char* sql :
         {"SELECT g, SUM(v) FROM ovf GROUP BY g", "SELECT AVG(v) FROM ovf",
          "SELECT g, SUM(v) FROM (SELECT * FROM ovf) o GROUP BY g"}) {
      auto r = db_.Execute(sql);
      ASSERT_FALSE(r.ok()) << sql;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
      EXPECT_EQ(r.status().message(), "integer out of range") << sql;
    }
  }
  SetOptions(1, 4096);
}

// Under EXPLAIN (ANALYZE) the Scan below an in-place Aggregate reports the
// rows it kept, the rows its filter removed and the time its selection
// took; the Aggregate's own line counts its groups.
TEST_F(HashedOperatorTest, ScanUnderAggregateReportsItsSelection) {
  SetOptions(1, 4096);
  struct Case {
    const char* sql;
    const char* scan_line;
  };
  // v > 10: rows 11..63 without 13, 20, ..., 62 keep 45 of 64. t IN (1, 3)
  // keeps the two partitions holding t = 1, 3 and one more t (48
  // candidates); of those, t in (1, 3) and v < 20 keeps the nine even rows
  // 0..18 but 6. g = 3 looks up 11 rows and keeps them all.
  const Case cases[] = {
      {"SELECT g, COUNT(*) FROM fact WHERE v > 10 GROUP BY g",
       "*Scan fact (filtered) [actual: rows=45 time=*ms cpu=*ms removed=19]"},
      {"SELECT g, COUNT(*) FROM fact WHERE t IN (1, 3) AND v < 20 GROUP BY g",
       "*Scan fact (filtered) [partitions: 2/4 pruned] [actual: rows=9 "
       "time=*ms cpu=*ms removed=39]"},
      {"SELECT COUNT(*) FROM fact WHERE g = 3",
       "*IndexScan fact (filtered) [index scan: fact_g, g = 3] [actual: "
       "rows=11 time=*ms cpu=*ms removed=0]"},
      {"SELECT COUNT(*) FROM fact",
       "*Scan fact [actual: rows=64 time=*ms cpu=*ms]"},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(auto sel, sql::ParseSelect(c.sql));
    ASSERT_OK_AND_ASSIGN(std::string text, db_.ExplainAnalyzeSelect(*sel));
    EXPECT_FALSE(OperatorLine(text, c.scan_line).empty())
        << c.scan_line << " in\n"
        << text;
    EXPECT_FALSE(OperatorLine(text, "*Aggregate*[actual: rows=*").empty())
        << text;
  }
}

TEST_F(HashedOperatorTest, DistinctAggregatesSkipNullsAndDuplicates) {
  // Per group, first-appearance order: g = 2 sees 5, NULL, 5; g = 1 sees 5,
  // 5, NULL, 7; NULL sees 7, 7; g = 3 sees only NULL.
  EXPECT_EQ(Rows("SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v), COUNT(v), "
                 "SUM(v) FROM dst GROUP BY g",
                 kDistinctAggregate),
            (Strings{"2,1,5,2,10", "1,2,12,3,17", "NULL,1,7,2,14",
                     "3,0,NULL,0,NULL"}));
  EXPECT_EQ(Rows("SELECT COUNT(DISTINCT v), SUM(DISTINCT v), COUNT(*) FROM dst",
                 kDistinctAggregate),
            (Strings{"2,12,10"}));
  EXPECT_EQ(Rows("SELECT COUNT(DISTINCT v) FROM dst WHERE v IS NULL",
                 kDistinctAggregate),
            (Strings{"0"}));
}

TEST_F(HashedOperatorTest, SelectDistinctKeepsFirstAppearances) {
  EXPECT_EQ(Rows("SELECT DISTINCT k FROM bld", kDistinct),
            (Strings{"1", "2", "NULL", "5"}));
  EXPECT_EQ(Rows("SELECT DISTINCT k, j FROM bld", kDistinct),
            (Strings{"1,1", "2,9", "1,2", "NULL,1", "2,2", "5,1"}));
  EXPECT_EQ(Rows("SELECT DISTINCT g FROM dst WHERE g > 5", kDistinct),
            Strings{});
}

TEST_F(HashedOperatorTest, NotInMatchesThePerRowPlan) {
  struct Case {
    const char* sql;
    Operator op;
    Strings rows;
  };
  const Case cases[] = {
      // No correlation key: the sub-query runs once into an IN set.
      {"SELECT tag FROM prb WHERE j NOT IN (SELECT j FROM bld WHERE j > 1)",
       kInSet,
       {"p1", "pn", "p3"}},
      // A NULL needle is never NOT IN a non-empty set.
      {"SELECT tag FROM prb WHERE k NOT IN "
       "(SELECT k FROM bld WHERE k IS NOT NULL)",
       kInSet,
       {"p3"}},
      // A NULL in the sub-query makes every miss NULL.
      {"SELECT tag FROM prb WHERE k NOT IN (SELECT k FROM bld)", kInSet, {}},
      // NOT IN an empty set is TRUE, even for a NULL needle.
      {"SELECT tag FROM prb WHERE k NOT IN (SELECT k FROM ebld)",
       kInSet,
       {"p1", "pn", "p2", "p3"}},
      // Correlated, so decorrelated into the null-aware anti join: p1's
      // group holds a NULL; pn's needle is NULL; p2's group holds its
      // needle; p3's group is empty.
      {"SELECT p.tag FROM prb p WHERE p.k NOT IN "
       "(SELECT b.k FROM bld b WHERE b.j = p.j)",
       kNullAwareAnti,
       {"p3"}},
      // pn's NULL correlation key finds no group; p2's needle 3 is absent
      // from its group {9, 2}.
      {"SELECT p.tag FROM prb p WHERE p.j + 1 NOT IN "
       "(SELECT b.j FROM bld b WHERE b.k = p.k)",
       kNullAwareAnti,
       {"pn", "p2", "p3"}},
      {"SELECT p.tag FROM prb p WHERE p.k NOT IN "
       "(SELECT e.k FROM ebld e WHERE e.seq = p.j)",
       kNullAwareAnti,
       {"p1", "pn", "p2", "p3"}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Rows(c.sql, c.op), c.rows);
    EXPECT_EQ(Undecorrelated(c.sql), c.rows) << c.sql;
  }
}

TEST_F(HashedOperatorTest, RowValuedNotInFollowsRowComparison) {
  // Needle row k of ndl meets the tuples of tpl with c = k:
  // (NULL, 1) vs {(7, 7)} kept, as 1 <> 7 makes the rows differ;
  // (1, 2) vs {(NULL, 3)} kept, as 2 <> 3; (1, 2) vs {(NULL, 2)} dropped,
  // as the rows may be equal; (NULL, 2) vs {(7, 2)} dropped, likewise.
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE ndl (a INTEGER, b INTEGER, c INTEGER, tag VARCHAR(4));
    CREATE TABLE tpl (c INTEGER, a INTEGER, b INTEGER);
    INSERT INTO ndl VALUES (NULL, 1, 1, 'n1'), (1, 2, 2, 'n2'),
                           (1, 2, 3, 'n3'), (NULL, 2, 4, 'n4');
    INSERT INTO tpl VALUES (1, 7, 7), (2, NULL, 3), (3, NULL, 2), (4, 7, 2);
  )"));
  // Correlated: decorrelated into the null-aware anti join, else an IN set
  // per row.
  const std::string correlated =
      "SELECT n.tag FROM ndl n WHERE (n.a, n.b) NOT IN "
      "(SELECT t.a, t.b FROM tpl t WHERE t.c = n.c)";
  EXPECT_EQ(Rows(correlated, kNullAwareAnti), (Strings{"n1", "n2"}));
  EXPECT_EQ(Undecorrelated(correlated), (Strings{"n1", "n2"}));
  // Uncorrelated: one IN set, whichever way the planner runs.
  const Operator in_set{"*Scan ndl (filtered)*", false};
  const Strings kept[] = {{"n1"}, {"n2"}, {}, {}};
  for (int k = 1; k <= 4; ++k) {
    const std::string c = std::to_string(k);
    const std::string sql = "SELECT tag FROM ndl WHERE c = " + c +
                            " AND (a, b) NOT IN (SELECT a, b FROM tpl "
                            "WHERE c = " + c + ")";
    EXPECT_EQ(Rows(sql, in_set), kept[k - 1]);
    EXPECT_EQ(Undecorrelated(sql), kept[k - 1]) << sql;
  }
}

TEST_F(HashedOperatorTest, InSubqueryWidthMustMatchItsNeedle) {
  struct Case {
    const char* sql;
    const char* message;
  };
  const Case cases[] = {
      {"SELECT tag FROM prb WHERE k IN (SELECT k, j FROM bld)",
       "subquery has too many columns"},
      {"SELECT tag FROM prb WHERE k NOT IN (SELECT k, j FROM bld)",
       "subquery has too many columns"},
      {"SELECT tag FROM prb WHERE (k, j) IN (SELECT k FROM bld)",
       "subquery has too few columns"},
      {"SELECT p.tag FROM prb p WHERE p.k NOT IN "
       "(SELECT b.k, b.seq FROM bld b WHERE b.j = p.j)",
       "subquery has too many columns"},
      {"SELECT p.tag FROM prb p WHERE (p.k, p.j) IN "
       "(SELECT b.k FROM bld b WHERE b.j = p.j)",
       "subquery has too few columns"},
  };
  for (bool decorrelate : {true, false}) {
    SetOptions(1, 4096, decorrelate);
    for (const Case& c : cases) {
      auto rs = db_.Execute(c.sql);
      ASSERT_FALSE(rs.ok()) << c.sql;
      EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument) << c.sql;
      EXPECT_EQ(rs.status().message(), c.message) << c.sql;
    }
  }
  SetOptions(1, 4096);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
