// Decorrelation regression tests: a Q21-style correlated EXISTS/NOT EXISTS
// query must execute O(1) sub-query joins instead of O(outer rows) per-row
// sub-queries, and the decorrelated plans must produce byte-identical
// results to the per-row fallback (PlannerOptions::decorrelate_subqueries =
// false) on the same data.
#include <gtest/gtest.h>

#include <string>

#include "engine/database.h"
#include "engine/explain.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

/// Exact (structural) result equality: same shape, same values, same order.
void ExpectSameResults(const ResultSet& a, const ResultSet& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size()) << "row " << i;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      EXPECT_TRUE(a.rows[i][j].StructuralEquals(b.rows[i][j]))
          << "row " << i << " col " << j << ": " << a.rows[i][j].ToString()
          << " vs " << b.rows[i][j].ToString();
    }
  }
}

class SubqueryDecorrelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
                     "CREATE TABLE li (okey INTEGER, skey INTEGER, "
                     "late INTEGER)")
                  .status());
    // 40 orders x 3 suppliers; supplier (okey % 3) is late, and every
    // fourth order has a second late supplier.
    std::string insert = "INSERT INTO li VALUES ";
    for (int okey = 0; okey < 40; ++okey) {
      for (int skey = 0; skey < 3; ++skey) {
        bool late = skey == okey % 3 || (okey % 4 == 0 && skey == 2);
        if (okey != 0 || skey != 0) insert += ", ";
        insert += "(" + std::to_string(okey) + ", " + std::to_string(skey) +
                  ", " + std::to_string(late ? 1 : 0) + ")";
      }
    }
    ASSERT_OK(db_.Execute(insert).status());
  }

  Result<ResultSet> Run(const std::string& sql, bool decorrelate) {
    PlannerOptions opt;
    opt.decorrelate_subqueries = decorrelate;
    db_.set_planner_options(opt);
    StatsScope stats(db_.stats());
    auto r = db_.Execute(sql);
    run_stats_ = stats.Delta();
    return r;
  }

  Database db_;
  ExecStats run_stats_;  // delta of the last Run()
};

constexpr char kQ21Style[] =
    "SELECT skey, COUNT(*) AS numwait FROM li l1 "
    "WHERE l1.late = 1 "
    "  AND EXISTS (SELECT * FROM li l2 "
    "              WHERE l2.okey = l1.okey AND l2.skey <> l1.skey) "
    "  AND NOT EXISTS (SELECT * FROM li l3 "
    "                  WHERE l3.okey = l1.okey AND l3.skey <> l1.skey "
    "                    AND l3.late = 1) "
    "GROUP BY skey ORDER BY numwait DESC, skey";

TEST_F(SubqueryDecorrelationTest, Q21StyleExecutesConstantSubqueryJoins) {
  ASSERT_OK_AND_ASSIGN(ResultSet fast, Run(kQ21Style, true));
  // Decorrelated: both sub-queries became hash joins, executed once each.
  EXPECT_EQ(run_stats_.subquery_execs, 0u);
  EXPECT_EQ(run_stats_.decorrelated_execs, 2u);

  ASSERT_OK_AND_ASSIGN(ResultSet slow, Run(kQ21Style, false));
  // Fallback: each correlated sub-query runs once per outer row (the AND
  // short-circuits NOT EXISTS for some rows), so the count scales with the
  // table, not the query: 50 late line items -> 50 EXISTS + 44 NOT EXISTS.
  EXPECT_EQ(run_stats_.decorrelated_execs, 0u);
  EXPECT_EQ(run_stats_.subquery_execs, 94u);

  ExpectSameResults(fast, slow);
  EXPECT_FALSE(fast.rows.empty());
}

TEST_F(SubqueryDecorrelationTest, CorrelatedInMatchesFallback) {
  const std::string sql =
      "SELECT okey, skey FROM li l1 "
      "WHERE l1.skey IN (SELECT l2.skey FROM li l2 "
      "                  WHERE l2.okey = l1.okey AND l2.late = 1) "
      "ORDER BY okey, skey";
  ASSERT_OK_AND_ASSIGN(ResultSet fast, Run(sql, true));
  EXPECT_EQ(run_stats_.subquery_execs, 0u);
  ASSERT_OK_AND_ASSIGN(ResultSet slow, Run(sql, false));
  EXPECT_GT(run_stats_.subquery_execs, 0u);
  ExpectSameResults(fast, slow);
}

TEST_F(SubqueryDecorrelationTest, CorrelatedInWithResidualFallsBack) {
  // A non-equality correlated conjunct inside an IN sub-query cannot be
  // turned into a hash-join residual (the decorrelated projection lacks the
  // inner columns it references); it must take the per-row path and still
  // produce correct results.
  const std::string sql =
      "SELECT okey FROM li l1 "
      "WHERE l1.skey IN (SELECT l2.skey FROM li l2 WHERE l2.okey > l1.okey) "
      "  AND l1.okey >= 38 ORDER BY okey, skey";
  ASSERT_OK_AND_ASSIGN(ResultSet fast, Run(sql, true));
  EXPECT_GT(run_stats_.subquery_execs, 0u);  // fell back per-row
  ASSERT_OK_AND_ASSIGN(ResultSet slow, Run(sql, false));
  ExpectSameResults(fast, slow);
  EXPECT_FALSE(fast.rows.empty());
}

TEST_F(SubqueryDecorrelationTest, NotInWithInnerNullsMatchesFallback) {
  // x NOT IN (S) is never TRUE when S contains NULL: the decorrelated
  // anti join must be null-aware to keep parity with per-row evaluation.
  ASSERT_OK(db_.ExecuteScript(
                   "CREATE TABLE t (a INTEGER, g INTEGER);"
                   "CREATE TABLE s (b INTEGER, g INTEGER);"
                   "INSERT INTO t VALUES (1, 1), (2, 1), (3, 2), (NULL, 2);"
                   "INSERT INTO s VALUES (1, 1), (NULL, 1), (2, 2)")
                .status());
  const std::string sql =
      "SELECT a FROM t WHERE a NOT IN "
      "(SELECT b FROM s WHERE s.g = t.g) ORDER BY a";
  ASSERT_OK_AND_ASSIGN(ResultSet fast, Run(sql, true));
  EXPECT_EQ(run_stats_.subquery_execs, 0u);
  ASSERT_OK_AND_ASSIGN(ResultSet slow, Run(sql, false));
  EXPECT_GT(run_stats_.subquery_execs, 0u);
  ExpectSameResults(fast, slow);
  // g=1: inner set {1, NULL} filters both a=1 (match) and a=2 (NULL).
  // g=2: inner set {2} keeps a=3; a=NULL is filtered (NULL NOT IN {2}).
  ASSERT_EQ(fast.rows.size(), 1u);
  EXPECT_EQ(fast.rows[0][0].int_value(), 3);
}

TEST_F(SubqueryDecorrelationTest, ExistsOverAnAggregateListMatchesFallback) {
  // An aggregate without GROUP BY makes one row even over no input, so
  // EXISTS over it is TRUE and NOT EXISTS FALSE for every outer row: it is
  // no semi or anti join.
  ASSERT_OK(db_.ExecuteScript(
                   "CREATE TABLE r (k INTEGER);"
                   "CREATE TABLE s (k INTEGER, v INTEGER);"
                   "INSERT INTO r VALUES (1), (2);"
                   "INSERT INTO s VALUES (1, 10)")
                .status());
  const std::string exists =
      "SELECT k FROM r WHERE EXISTS "
      "(SELECT MAX(v) FROM s WHERE s.k = r.k) ORDER BY k";
  ASSERT_OK_AND_ASSIGN(ResultSet fast, Run(exists, true));
  ASSERT_OK_AND_ASSIGN(ResultSet slow, Run(exists, false));
  ExpectSameResults(fast, slow);
  ASSERT_EQ(fast.rows.size(), 2u);
  EXPECT_EQ(fast.rows[0][0].int_value(), 1);
  EXPECT_EQ(fast.rows[1][0].int_value(), 2);

  const std::string not_exists =
      "SELECT k FROM r WHERE NOT EXISTS "
      "(SELECT COUNT(*) FROM s WHERE s.k = r.k) ORDER BY k";
  ASSERT_OK_AND_ASSIGN(fast, Run(not_exists, true));
  ASSERT_OK_AND_ASSIGN(slow, Run(not_exists, false));
  ExpectSameResults(fast, slow);
  EXPECT_TRUE(fast.rows.empty());
}

TEST_F(SubqueryDecorrelationTest, ExplainShowsChosenStrategy) {
  ASSERT_OK_AND_ASSIGN(auto sel, sql::ParseSelect(kQ21Style));
  PlannerOptions decorr;
  ASSERT_OK_AND_ASSIGN(std::string fast,
                       ExplainSelect(db_.catalog(), db_.udfs(), *sel, decorr));
  EXPECT_NE(fast.find("[decorrelated EXISTS]"), std::string::npos) << fast;
  EXPECT_NE(fast.find("[decorrelated NOT EXISTS]"), std::string::npos) << fast;
  EXPECT_EQ(fast.find("SubPlan"), std::string::npos) << fast;

  PlannerOptions fallback;
  fallback.decorrelate_subqueries = false;
  ASSERT_OK_AND_ASSIGN(
      std::string slow,
      ExplainSelect(db_.catalog(), db_.udfs(), *sel, fallback));
  EXPECT_NE(slow.find("SubPlan (EXISTS, per-row)"), std::string::npos) << slow;
  EXPECT_NE(slow.find("SubPlan (NOT EXISTS, per-row)"), std::string::npos)
      << slow;
  EXPECT_EQ(slow.find("[decorrelated"), std::string::npos) << slow;
}

TEST_F(SubqueryDecorrelationTest, ExplainMarksNullAwareAntiJoin) {
  ASSERT_OK(db_.ExecuteScript(
                   "CREATE TABLE u (a INTEGER, g INTEGER);"
                   "CREATE TABLE v (b INTEGER, g INTEGER)")
                .status());
  ASSERT_OK_AND_ASSIGN(
      auto sel,
      sql::ParseSelect("SELECT a FROM u WHERE a NOT IN "
                       "(SELECT b FROM v WHERE v.g = u.g)"));
  ASSERT_OK_AND_ASSIGN(std::string plan,
                       ExplainSelect(db_.catalog(), db_.udfs(), *sel));
  EXPECT_NE(plan.find("[decorrelated NOT IN, null-aware]"), std::string::npos)
      << plan;
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
