#include <gtest/gtest.h>

#include "engine/database.h"
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

// -- Hash-join kernel -------------------------------------------------------

/// Every case runs twice: serially, and with 4 threads under a 2-row
/// parallel gate, so even these few-row tables take the parallel build and
/// probe. Both runs must agree byte for byte, rows_joined included.
class HashJoinKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(R"(
      CREATE TABLE prb (k INTEGER, j INTEGER, tag VARCHAR(4));
      CREATE TABLE bld (k INTEGER, j INTEGER, seq INTEGER);
      CREATE TABLE dbld (k DECIMAL(10,2), seq INTEGER);
      CREATE TABLE ebld (k INTEGER, seq INTEGER);
      INSERT INTO prb VALUES (1, 1, 'p1'), (NULL, 1, 'pn'), (2, 2, 'p2'),
                             (3, 3, 'p3');
      INSERT INTO bld VALUES (1, 1, 10), (2, 9, 20), (1, 2, 30), (NULL, 1, 40),
                             (1, 1, 50), (2, 2, 60), (5, 1, 70);
      INSERT INTO dbld VALUES (1.00, 1), (2.50, 2), (2.00, 3);
    )"));
  }

  void SetThreads(int threads, size_t min_rows) {
    PlannerOptions opts = db_.planner_options();
    opts.max_threads = threads;
    opts.min_parallel_rows = min_rows;
    db_.set_planner_options(opts);
  }

  /// Result rows as comma-joined cells, in result order; `rows_joined`
  /// (optional) receives the join pairs the serial run evaluated.
  std::vector<std::string> Rows(const std::string& sql,
                                uint64_t* rows_joined = nullptr) {
    SCOPED_TRACE(sql);
    SetThreads(1, 4096);
    StatsScope serial_scope(db_.stats());
    auto serial = db_.Execute(sql);
    const ExecStats serial_stats = serial_scope.Delta();
    SetThreads(4, 2);
    StatsScope par_scope(db_.stats());
    auto par = db_.Execute(sql);
    const ExecStats par_stats = par_scope.Delta();
    SetThreads(1, 4096);
    EXPECT_OK(serial.status());
    EXPECT_OK(par.status());
    if (!serial.ok() || !par.ok()) return {};
    EXPECT_EQ(CanonRows(serial.value().rows), CanonRows(par.value().rows));
    EXPECT_EQ(serial_stats.rows_joined, par_stats.rows_joined);
    EXPECT_EQ(serial_stats.parallel_joins, 0u);
    EXPECT_GT(par_stats.parallel_joins, 0u);
    if (rows_joined != nullptr) *rows_joined = serial_stats.rows_joined;
    std::vector<std::string> out;
    for (const Row& row : serial.value().rows) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += ",";
        line += row[i].ToString();
      }
      out.push_back(line);
    }
    return out;
  }

  using Strings = std::vector<std::string>;
  Database db_;
};

TEST_F(HashJoinKernelTest, MatchesComeInBuildRowOrder) {
  uint64_t joined = 0;
  EXPECT_EQ(Rows("SELECT p.tag, b.seq FROM prb p JOIN bld b ON p.k = b.k",
                 &joined),
            (Strings{"p1,10", "p1,30", "p1,50", "p2,20", "p2,60"}));
  EXPECT_EQ(joined, 5u);  // key-equal candidates only
}

TEST_F(HashJoinKernelTest, NullKeysOnEitherSide) {
  // pn's NULL key and bld's (NULL, 1, 40) row never match anything.
  EXPECT_EQ(
      Rows("SELECT p.tag, b.seq FROM prb p LEFT JOIN bld b ON p.k = b.k"),
      (Strings{"p1,10", "p1,30", "p1,50", "pn,NULL", "p2,20", "p2,60",
               "p3,NULL"}));
  EXPECT_EQ(Rows("SELECT p.tag FROM prb p WHERE EXISTS "
                 "(SELECT * FROM bld b WHERE b.k = p.k)"),
            (Strings{"p1", "p2"}));
  EXPECT_EQ(Rows("SELECT p.tag FROM prb p WHERE NOT EXISTS "
                 "(SELECT * FROM bld b WHERE b.k = p.k)"),
            (Strings{"pn", "p3"}));
}

TEST_F(HashJoinKernelTest, IntKeyMatchesEqualDecimal) {
  EXPECT_EQ(Rows("SELECT p.tag, d.seq FROM prb p JOIN dbld d ON p.k = d.k"),
            (Strings{"p1,1", "p2,3"}));
}

TEST_F(HashJoinKernelTest, TwoColumnKeyNeedsBothToAgree) {
  // (1, 2, 30) and (2, 9, 20) agree with a probe row on k only, (5, 1, 70)
  // and (NULL, 1, 40) on j only.
  uint64_t joined = 0;
  EXPECT_EQ(Rows("SELECT p.tag, b.seq FROM prb p JOIN bld b "
                 "ON p.k = b.k AND p.j = b.j",
                 &joined),
            (Strings{"p1,10", "p1,50", "p2,60"}));
  EXPECT_EQ(joined, 3u);
}

TEST_F(HashJoinKernelTest, EmptyBuildInput) {
  EXPECT_EQ(Rows("SELECT p.tag, e.seq FROM prb p JOIN ebld e ON p.k = e.k"),
            Strings{});
  EXPECT_EQ(
      Rows("SELECT p.tag, e.seq FROM prb p LEFT JOIN ebld e ON p.k = e.k"),
      (Strings{"p1,NULL", "pn,NULL", "p2,NULL", "p3,NULL"}));
  EXPECT_EQ(Rows("SELECT p.tag FROM prb p WHERE NOT EXISTS "
                 "(SELECT * FROM ebld e WHERE e.k = p.k)"),
            (Strings{"p1", "pn", "p2", "p3"}));
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
