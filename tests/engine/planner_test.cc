// Planner-level behavior: pushdown, InitPlans, unnesting — observed through
// ExecStats rather than timing — and column pruning, observed through the
// widths of the bound scans and checked against hand-computed rows.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/explain.h"
#include "engine/filter.h"
#include "mth/queries.h"
#include "mth/runner.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE big (id INTEGER NOT NULL, grp INTEGER NOT NULL, v "
        "INTEGER NOT NULL)"));
    Table* t = db_.catalog()->FindTable("big");
    for (int64_t i = 0; i < 1000; ++i) {
      ASSERT_OK(t->Insert(
          {Value::Int(i), Value::Int(i % 10), Value::Int(i * 7 % 101)}));
    }
  }
  Database db_;
};

TEST_F(PlannerTest, JoinDoesNotExplode) {
  StatsScope stats(db_.stats());
  ASSERT_OK_AND_ASSIGN(
      auto rs, db_.Execute("SELECT COUNT(*) FROM big a, big b WHERE a.id = "
                           "b.id AND a.grp = 3"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 100);
  // A hash join touches each pair once; a nested loop would visit 10^6.
  EXPECT_LT(stats.Delta().rows_joined, 2000u);
}

TEST_F(PlannerTest, FilterPushdownLimitsJoinInput) {
  StatsScope stats(db_.stats());
  ASSERT_OK(db_.Execute("SELECT COUNT(*) FROM big a, big b WHERE a.id = b.id "
                        "AND a.grp = 3 AND b.grp = 3")
                .status());
  EXPECT_LT(stats.Delta().rows_joined, 200u);
}

TEST_F(PlannerTest, ExistsBecomesSemiJoinNotPerRow) {
  StatsScope stats(db_.stats());
  ASSERT_OK_AND_ASSIGN(
      auto rs,
      db_.Execute("SELECT COUNT(*) FROM big a WHERE EXISTS (SELECT * FROM "
                  "big b WHERE b.id = a.id AND b.v > 50)"));
  EXPECT_GT(rs.rows[0][0].int_value(), 0);
  EXPECT_EQ(stats.Delta().subquery_execs, 0u);  // decorrelated
}

TEST_F(PlannerTest, CorrelatedScalarAggBecomesGroupJoin) {
  StatsScope stats(db_.stats());
  ASSERT_OK(db_.Execute("SELECT COUNT(*) FROM big a WHERE a.v > (SELECT "
                        "AVG(b.v) FROM big b WHERE b.grp = a.grp)")
                .status());
  EXPECT_EQ(stats.Delta().subquery_execs, 0u);
}

TEST_F(PlannerTest, UncorrelatedInSubqueryEvaluatedOnce) {
  StatsScope stats(db_.stats());
  ASSERT_OK(db_.Execute("SELECT COUNT(*) FROM big WHERE grp IN (SELECT grp "
                        "FROM big WHERE v = 7)")
                .status());
  EXPECT_EQ(stats.Delta().initplan_execs, 1u);
  EXPECT_EQ(stats.Delta().subquery_execs, 0u);
}

TEST_F(PlannerTest, ViewExpandsInline) {
  ASSERT_OK(db_.Execute(
      "CREATE VIEW grp3 AS SELECT id, v FROM big WHERE grp = 3"));
  ASSERT_OK_AND_ASSIGN(auto rs,
                       db_.Execute("SELECT COUNT(*) FROM grp3 WHERE v > 50"));
  EXPECT_GT(rs.rows[0][0].int_value(), 0);
  EXPECT_LT(rs.rows[0][0].int_value(), 100);
}

TEST_F(PlannerTest, AmbiguousColumnRejected) {
  auto st = db_.Execute("SELECT id FROM big a, big b WHERE a.grp = b.grp");
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlannerTest, AggregateWithoutGroupByOverColumnRejected) {
  auto st = db_.Execute("SELECT v, COUNT(*) FROM big");
  EXPECT_FALSE(st.ok());
}

TEST_F(PlannerTest, AggregateInWhereRejected) {
  auto st = db_.Execute("SELECT id FROM big WHERE COUNT(*) > 1");
  EXPECT_FALSE(st.ok());
}

TEST_F(PlannerTest, GroupByExpressionMatchedInSelect) {
  ASSERT_OK_AND_ASSIGN(
      auto rs, db_.Execute("SELECT grp + 1, COUNT(*) FROM big GROUP BY grp + "
                           "1 ORDER BY grp + 1 LIMIT 3"));
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);
  EXPECT_EQ(rs.rows[0][1].int_value(), 100);
}

TEST_F(PlannerTest, CountDistinct) {
  ASSERT_OK_AND_ASSIGN(auto rs,
                       db_.Execute("SELECT COUNT(DISTINCT grp) FROM big"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 10);
}

// -- Constant conjuncts -----------------------------------------------------

/// The plan of `sql` rendered by ExplainSelect, for shape assertions.
std::string PlanText(Database* db, const std::string& sql) {
  auto stmt = sql::ParseStatement(sql);
  EXPECT_OK(stmt.status());
  if (!stmt.ok()) return "";
  auto text = ExplainSelect(db->catalog(), db->udfs(), *stmt.value().select,
                            db->planner_options());
  EXPECT_OK(text.status());
  return text.ok() ? text.value() : "";
}

TEST_F(PlannerTest, TrueConstantConjunctIsDropped) {
  const std::string sql = "SELECT COUNT(*) FROM big WHERE 1 = 1";
  EXPECT_EQ(PlanText(&db_, sql),
            "Project (1 columns)\n  Aggregate (groups: 0, aggs: COUNT(*))\n"
            "    Scan big\n");
  ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute(sql));
  EXPECT_EQ(rs.rows[0][0].int_value(), 1000);
}

TEST_F(PlannerTest, FalseAndNullConstantsEmptyTheScanWithoutReadingRows) {
  for (const char* cond : {"1 = 4", "NULL", "NULL = 1"}) {
    const std::string sql =
        std::string("SELECT grp, COUNT(*) FROM big WHERE ") + cond +
        " GROUP BY grp";
    SCOPED_TRACE(sql);
    // No Filter: the Aggregate folds the scan, which keeps nothing.
    EXPECT_EQ(PlanText(&db_, sql),
              "Project (2 columns)\n"
              "  Aggregate (groups: 1, aggs: COUNT(*))\n"
              "    Scan big (filtered)\n");
    StatsScope stats(db_.stats());
    ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute(sql));
    EXPECT_TRUE(rs.rows.empty());
  }
}

TEST_F(PlannerTest, ConstantBesideLikeLeadsTheScanFilter) {
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE r (a INTEGER, c VARCHAR(4));"
      "INSERT INTO r VALUES (1, 'ab'), (2, 'bb'), (1, 'cb'), (3, 'ba')"));
  const std::string sql =
      "SELECT a, COUNT(*) FROM r WHERE c LIKE '%b' AND 1 = 4 GROUP BY a";
  ASSERT_OK_AND_ASSIGN(sql::Stmt stmt, sql::ParseStatement(sql));
  Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
  const Plan* agg = plan->left.get();
  ASSERT_EQ(agg->kind, Plan::Kind::kAggregate);
  EXPECT_TRUE(AggregatesScanInPlace(*agg));
  EXPECT_TRUE(RowFilter::KeepsNothing(*agg->left->scan_filter));
  ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute(sql));
  EXPECT_TRUE(rs.rows.empty());
  // Without the constant the LIKE still selects, and a TRUE one changes
  // nothing.
  ASSERT_OK_AND_ASSIGN(
      rs, db_.Execute("SELECT a, COUNT(*) FROM r WHERE c LIKE '%b' AND 2 > 1 "
                      "GROUP BY a ORDER BY a"));
  EXPECT_EQ(CanonRows(rs.rows), CanonRows({{Value::Int(1), Value::Int(2)},
                                           {Value::Int(2), Value::Int(1)}}));
}

TEST_F(PlannerTest, ConstantsThatDoNotFoldStayInAFilter) {
  // A division by zero folds to no literal: it stays above the FROM tree and
  // fails when a row evaluates it, as before.
  const std::string sql = "SELECT COUNT(*) FROM big WHERE 1 / 0 = 1";
  EXPECT_NE(PlanText(&db_, sql).find("Filter"), std::string::npos);
  EXPECT_FALSE(db_.Execute(sql).ok());
}

TEST_F(PlannerTest, DmlWithConstantFalseWhereExaminesNoRow) {
  StatsScope stats(db_.stats());
  ASSERT_OK_AND_ASSIGN(auto rs,
                       db_.Execute("UPDATE big SET v = v + 1 WHERE 1 = 0"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
  ASSERT_OK_AND_ASSIGN(rs, db_.Execute("DELETE FROM big WHERE grp = 3 AND "
                                       "NULL"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
  EXPECT_EQ(stats.Delta().dml_rows_examined, 0u);
  EXPECT_EQ(stats.Delta().dml_rows_copied, 0u);
  ASSERT_OK_AND_ASSIGN(rs, db_.Execute("UPDATE big SET v = v + 1 WHERE 1 = 1 "
                                       "AND id = 7"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);
  EXPECT_EQ(stats.Delta().dml_rows_examined, 1000u);
  EXPECT_EQ(stats.Delta().dml_rows_copied, kChunkRows);
}

// -- Column pruning ---------------------------------------------------------

/// "table:width" for every bound scan of `p` — pre-order, a node's
/// expression sub-plans before its inputs.
void CollectScanWidths(const Plan& p, std::vector<std::string>* out);

void CollectExprScanWidths(const BoundExpr& e, std::vector<std::string>* out) {
  if (e.subplan) CollectScanWidths(*e.subplan, out);
  ForEachExprChild(e, [out](const BoundExpr& c) {
    CollectExprScanWidths(c, out);
  });
}

void CollectScanWidths(const Plan& p, std::vector<std::string>* out) {
  if ((p.kind == Plan::Kind::kScan || p.kind == Plan::Kind::kIndexScan) &&
      p.table != nullptr) {
    out->push_back(p.table->schema().name + ":" +
                   std::to_string(p.columns.size()));
  }
  ForEachPlanExpr(p, [out](const BoundExpr& e) {
    CollectExprScanWidths(e, out);
  });
  if (p.left) CollectScanWidths(*p.left, out);
  if (p.right) CollectScanWidths(*p.right, out);
}

/// Small hand-checkable tables; every statement runs under plan
/// verification, so each pruned plan must also be verifier-clean.
class ColumnPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("MTBASE_VERIFY_PLANS");
    had_env_ = old != nullptr;
    if (had_env_) saved_env_ = old;
    setenv("MTBASE_VERIFY_PLANS", "1", 1);
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE emp (id INTEGER NOT NULL, dept INTEGER, "
        "name VARCHAR(10), salary INTEGER, note VARCHAR(20));"
        "CREATE TABLE dept (did INTEGER NOT NULL, dname VARCHAR(10), "
        "budget INTEGER, city VARCHAR(10));"
        "INSERT INTO emp VALUES (1, 10, 'ann', 100, 'a'), "
        "(2, 10, 'bob', 200, 'b'), (3, 20, 'cat', 300, 'c'), "
        "(4, NULL, 'dan', 400, 'd'), (5, 30, 'eve', 500, 'e');"
        "INSERT INTO dept VALUES (10, 'eng', 1000, 'zrh'), "
        "(20, 'ops', 2000, 'ber'), (40, 'hr', 4000, 'par');"
        "CREATE FUNCTION dname_of (INTEGER) RETURNS VARCHAR(10) AS "
        "'SELECT dname FROM dept WHERE did = $1' LANGUAGE SQL IMMUTABLE"));
  }
  void TearDown() override {
    if (had_env_) {
      setenv("MTBASE_VERIFY_PLANS", saved_env_.c_str(), 1);
    } else {
      unsetenv("MTBASE_VERIFY_PLANS");
    }
  }

  Result<PlanPtr> Plan(const std::string& sql) {
    MTB_ASSIGN_OR_RETURN(sql::Stmt stmt, sql::ParseStatement(sql));
    Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
    return planner.PlanSelect(*stmt.select);
  }

  std::vector<std::string> ScanWidths(const std::string& sql) {
    std::vector<std::string> out;
    auto plan = Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) CollectScanWidths(*plan.value(), &out);
    return out;
  }

  /// Result rows as comma-joined cells, in result order.
  std::vector<std::string> Rows(const std::string& sql) {
    std::vector<std::string> out;
    auto rs = db_.Execute(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok()) return out;
    for (const Row& row : rs.value().rows) {
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

 private:
  std::string saved_env_;
  bool had_env_ = false;
};

TEST_F(ColumnPruningTest, FilterAboveJoin) {
  // The WHERE conjunct reads both sides of the explicit join, so it stays a
  // Filter above it: the join emits name, salary and budget only.
  const std::string sql =
      "SELECT e.name FROM emp e JOIN dept d ON e.dept = d.did "
      "WHERE e.salary + d.budget > 1150";
  EXPECT_EQ(ScanWidths(sql), (Strings{"emp:3", "dept:2"}));
  EXPECT_EQ(Rows(sql), (Strings{"bob", "cat"}));
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, Plan(sql));
  const engine::Plan* filter = plan->left.get();
  ASSERT_EQ(filter->kind, Plan::Kind::kFilter);
  EXPECT_EQ(filter->columns.size(), 3u);
  ASSERT_TRUE(filter->left->emit.has_value());
  EXPECT_EQ(*filter->left->emit, (std::vector<int>{1, 2, 4}));
}

TEST_F(ColumnPruningTest, OrderByNonOutputColumn) {
  EXPECT_EQ(ScanWidths("SELECT name FROM emp ORDER BY salary DESC"),
            (Strings{"emp:2"}));
  EXPECT_EQ(Rows("SELECT name FROM emp ORDER BY salary DESC"),
            (Strings{"eve", "dan", "cat", "bob", "ann"}));
  EXPECT_EQ(Rows("SELECT name FROM emp ORDER BY salary DESC LIMIT 2"),
            (Strings{"eve", "dan"}));
}

TEST_F(ColumnPruningTest, LeftJoinPadsDroppedRightSideWithNulls) {
  const std::string sql =
      "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept = d.did";
  EXPECT_EQ(ScanWidths(sql), (Strings{"emp:2", "dept:2"}));
  EXPECT_EQ(Rows(sql), (Strings{"ann,eng", "bob,eng", "cat,ops", "dan,NULL",
                                "eve,NULL"}));
}

TEST_F(ColumnPruningTest, SemiAntiAndNullAwareAntiJoins) {
  // EXISTS unnests to SELECT * over dept, narrowed to the join key.
  const std::string exists =
      "SELECT name FROM emp e WHERE EXISTS "
      "(SELECT * FROM dept d WHERE d.did = e.dept)";
  EXPECT_EQ(ScanWidths(exists), (Strings{"emp:2", "dept:1"}));
  EXPECT_EQ(Rows(exists), (Strings{"ann", "bob", "cat"}));

  const std::string not_exists =
      "SELECT name FROM emp e WHERE NOT EXISTS "
      "(SELECT * FROM dept d WHERE d.did = e.dept)";
  EXPECT_EQ(Rows(not_exists), (Strings{"dan", "eve"}));

  const std::string in =
      "SELECT name FROM emp e WHERE e.salary IN "
      "(SELECT d.budget - 900 FROM dept d WHERE d.did = e.dept)";
  EXPECT_EQ(ScanWidths(in), (Strings{"emp:3", "dept:2"}));
  EXPECT_EQ(Rows(in), (Strings{"ann"}));

  const std::string not_in =
      "SELECT name FROM emp e WHERE e.salary NOT IN "
      "(SELECT d.budget - 900 FROM dept d WHERE d.did = e.dept)";
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, Plan(not_in));
  EXPECT_PLAN_SHAPE(ExplainPlan(*plan),
                    {"*HashJoin ANTI*[decorrelated NOT IN, null-aware]"});
  EXPECT_EQ(ScanWidths(not_in), (Strings{"emp:3", "dept:2"}));
  EXPECT_EQ(Rows(not_in), (Strings{"bob", "cat", "dan", "eve"}));
}

TEST_F(ColumnPruningTest, NestedLoopResidual) {
  const std::string sql =
      "SELECT e.name, d.dname FROM emp e, dept d "
      "WHERE e.salary * 10 > d.budget";
  EXPECT_EQ(ScanWidths(sql), (Strings{"emp:2", "dept:2"}));
  EXPECT_EQ(Rows(sql), (Strings{"bob,eng", "cat,eng", "cat,ops", "dan,eng",
                                "dan,ops", "eve,eng", "eve,ops", "eve,hr"}));
}

TEST_F(ColumnPruningTest, Distinct) {
  const std::string sql =
      "SELECT DISTINCT d.dname FROM emp e, dept d WHERE e.dept = d.did";
  EXPECT_EQ(ScanWidths(sql), (Strings{"emp:1", "dept:2"}));
  EXPECT_EQ(Rows(sql), (Strings{"eng", "ops"}));
}

TEST_F(ColumnPruningTest, CountStarReadsNoColumn) {
  // A derived table keeps its Project, so the Aggregate reads a batch and
  // the scan below emits no column.
  const std::string derived = "SELECT COUNT(*) FROM (SELECT name FROM emp) t";
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, Plan(derived));
  const engine::Plan* scan = plan.get();
  while (scan->left) scan = scan->left.get();
  ASSERT_EQ(scan->kind, Plan::Kind::kScan);
  // "No column" is an empty projection, distinct from "every column".
  ASSERT_TRUE(scan->emit.has_value());
  EXPECT_TRUE(scan->emit->empty());
  EXPECT_EQ(Rows(derived), (Strings{"5"}));

  // Directly over the scan, the Aggregate folds the table's rows where they
  // lie, so the scan stays whole and copies nothing.
  ASSERT_OK_AND_ASSIGN(PlanPtr direct, Plan("SELECT COUNT(*) FROM emp"));
  const engine::Plan* agg = direct.get();
  while (agg->kind != Plan::Kind::kAggregate) agg = agg->left.get();
  EXPECT_TRUE(AggregatesScanInPlace(*agg));
  EXPECT_FALSE(agg->left->emit.has_value());
  EXPECT_EQ(Rows("SELECT COUNT(*) FROM emp"), (Strings{"5"}));

  const std::string join =
      "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.did";
  EXPECT_EQ(ScanWidths(join), (Strings{"emp:1", "dept:1"}));
  EXPECT_EQ(Rows(join), (Strings{"3"}));
}

TEST_F(ColumnPruningTest, CorrelatedPerRowFallbackKeepsInputWhole) {
  // COUNT blocks decorrelation: the sub-plan runs per row, and its outer
  // reference indexes the Filter's input row, so that input stays whole.
  const std::string sql =
      "SELECT name FROM emp e WHERE (SELECT COUNT(*) FROM dept d "
      "WHERE d.budget > e.salary * 5) >= 2";
  EXPECT_EQ(ScanWidths(sql), (Strings{"dept:1", "emp:5"}));
  StatsScope stats(db_.stats());
  EXPECT_EQ(Rows(sql), (Strings{"ann", "bob", "cat"}));
  EXPECT_GT(stats.Delta().subquery_execs, 0u);
}

TEST_F(ColumnPruningTest, UncorrelatedInitPlans) {
  const std::string in =
      "SELECT name FROM emp WHERE dept IN "
      "(SELECT did FROM dept WHERE budget > 1500)";
  EXPECT_EQ(ScanWidths(in), (Strings{"emp:1", "dept:1"}));
  EXPECT_EQ(Rows(in), (Strings{"cat"}));

  // The InitPlan's Aggregate folds its scan in place: that scan stays whole.
  const std::string scalar =
      "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)";
  EXPECT_EQ(ScanWidths(scalar), (Strings{"emp:1", "emp:5"}));
  StatsScope stats(db_.stats());
  EXPECT_EQ(Rows(scalar), (Strings{"dan", "eve"}));
  EXPECT_EQ(stats.Delta().initplan_execs, 1u);
}

TEST_F(ColumnPruningTest, UdfBodyPrunedAsItsOwnRoot) {
  const Udf* udf = db_.udfs()->Find("dname_of");
  ASSERT_NE(udf, nullptr);
  ASSERT_NE(udf->body_plan, nullptr);
  std::vector<std::string> body;
  CollectScanWidths(*udf->body_plan, &body);
  EXPECT_EQ(body, (Strings{"dept:1"}));
  const std::string sql = "SELECT name, dname_of(dept) FROM emp";
  EXPECT_EQ(ScanWidths(sql), (Strings{"emp:2"}));
  EXPECT_EQ(Rows(sql), (Strings{"ann,eng", "bob,eng", "cat,ops", "dan,NULL",
                                "eve,NULL"}));
}

TEST_F(ColumnPruningTest, ViewAndDerivedTableProjectOnlyWhatIsRead) {
  // A view's or derived table's projection computes only the outputs the
  // outer query reads, so the scan below carries only what those read.
  ASSERT_OK(db_.Execute("CREATE VIEW rich AS SELECT id, name, salary, note "
                        "FROM emp WHERE salary > 250")
                .status());
  EXPECT_EQ(ScanWidths("SELECT name FROM rich"), (Strings{"emp:1"}));
  EXPECT_EQ(Rows("SELECT name FROM rich"), (Strings{"cat", "dan", "eve"}));

  const std::string derived =
      "SELECT t.n FROM (SELECT name AS n, salary AS s FROM emp) t "
      "WHERE t.s > 250";
  EXPECT_EQ(ScanWidths(derived), (Strings{"emp:2"}));
  EXPECT_EQ(Rows(derived), (Strings{"cat", "dan", "eve"}));
}

TEST_F(ColumnPruningTest, DistinctKeepsColumnsTheOuterQueryDoesNotRead) {
  // DISTINCT ranges over every column of its projection: 5 (dept, name)
  // pairs, not the 4 distinct depts.
  const std::string sql =
      "SELECT t.dept FROM (SELECT DISTINCT dept, name FROM emp) t";
  EXPECT_EQ(ScanWidths(sql), (Strings{"emp:2"}));
  EXPECT_EQ(Rows(sql), (Strings{"10", "10", "20", "NULL", "30"}));
}

TEST_F(ColumnPruningTest, UnreadDerivedColumnIsNeverComputed) {
  // The body runs once per distinct did when the column is read, never when
  // it is not.
  const std::string unread =
      "SELECT t.city FROM (SELECT city, dname_of(did) AS dn FROM dept) t";
  EXPECT_EQ(ScanWidths(unread), (Strings{"dept:1"}));
  StatsScope stats(db_.stats());
  EXPECT_EQ(Rows(unread), (Strings{"zrh", "ber", "par"}));
  EXPECT_EQ(stats.Delta().udf_calls, 0u);

  const std::string read =
      "SELECT t.dn FROM (SELECT city, dname_of(did) AS dn FROM dept) t";
  EXPECT_EQ(ScanWidths(read), (Strings{"dept:1"}));
  stats.Restart();
  EXPECT_EQ(Rows(read), (Strings{"eng", "ops", "hr"}));
  EXPECT_EQ(stats.Delta().udf_calls, 3u);
}

// MT-H: TPC-H Q1 reads 7 lineitem columns, one of them (l_shipdate) only in
// the scan filter, so the scan emits 6 of 16. At the canonical rewrite the
// conversion calls also read ttid: 7 of 17.
TEST(ColumnPruningMthTest, Q1LineitemScanWidth) {
  mth::MthConfig cfg;
  cfg.scale_factor = 0.001;
  cfg.num_tenants = 2;
  ASSERT_OK_AND_ASSIGN(auto env,
                       mth::SetupEnvironment(cfg, DbmsProfile::kPostgres));
  // The width of the lineitem scan (the plan's left-most leaf), and whether
  // an Aggregate folds it in place.
  auto lineitem_width = [](Database* db, const std::string& sql,
                           size_t* width, size_t* table_width,
                           bool* in_place) {
    ASSERT_OK_AND_ASSIGN(sql::Stmt stmt, sql::ParseStatement(sql));
    Planner planner(db->catalog(), db->udfs(), db->planner_options());
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
    const engine::Plan* parent = nullptr;
    const engine::Plan* scan = plan.get();
    while (scan->left) {
      parent = scan;
      scan = scan->left.get();
    }
    ASSERT_NE(scan->table, nullptr);
    ASSERT_EQ(scan->table->schema().name, "lineitem");
    *width = scan->columns.size();
    *table_width = scan->table->schema().columns.size();
    *in_place = parent != nullptr && AggregatesScanInPlace(*parent);
  };
  size_t width = 0;
  size_t table_width = 0;
  bool in_place = false;
  // Q1 aggregates the scan in place: it stays whole and copies no column.
  const std::string q1 = mth::GetMthQuery(1, cfg.scale_factor).sql;
  lineitem_width(env->tpch_db.get(), q1, &width, &table_width, &in_place);
  EXPECT_TRUE(in_place);
  EXPECT_EQ(width, 16u);
  EXPECT_EQ(table_width, 16u);
  // Over a Project, the same scan carries only the six columns Q1 reads.
  const std::string projected =
      "SELECT l_returnflag, l_linestatus, l_quantity, l_extendedprice, "
      "l_discount * l_tax FROM lineitem WHERE l_shipdate <= DATE "
      "'1998-09-02'";
  lineitem_width(env->tpch_db.get(), projected, &width, &table_width,
                 &in_place);
  EXPECT_FALSE(in_place);
  EXPECT_EQ(width, 6u);
  EXPECT_EQ(table_width, 16u);

  mt::Session session = env->OpenSession(1);
  session.set_optimization_level(mt::OptLevel::kCanonical);
  ASSERT_OK_AND_ASSIGN(std::string rewritten, session.Rewrite(q1));
  lineitem_width(env->mth_db.get(), rewritten, &width, &table_width,
                 &in_place);
  EXPECT_TRUE(in_place);
  EXPECT_EQ(width, 17u);
  EXPECT_EQ(table_width, 17u);
  ASSERT_OK_AND_ASSIGN(std::string projected_mt, session.Rewrite(projected));
  lineitem_width(env->mth_db.get(), projected_mt, &width, &table_width,
                 &in_place);
  EXPECT_FALSE(in_place);
  EXPECT_EQ(width, 7u);
  EXPECT_EQ(table_width, 17u);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
