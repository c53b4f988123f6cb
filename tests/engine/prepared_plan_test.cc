// Prepared-statement API at the engine layer: one-time compilation, $n / ?
// parameter binding, O(1) re-execution (asserted through ExecStats, not
// wall-clock) and transparent recompilation after DDL.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

constexpr const char* kSetup = R"(
  CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(10), c DECIMAL(15,2));
  INSERT INTO t VALUES (1, 'x', 1.50), (2, 'y', 2.50), (3, 'z', 3.50);
)";

class PreparedPlanTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(db_.ExecuteScript(kSetup)); }

  Database db_;
};

TEST_F(PreparedPlanTest, ExecuteManyWithParams) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT a, b FROM t WHERE a >= $1"));
  EXPECT_EQ(plan.param_count(), 1);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, plan.Execute({Value::Int(2)}));
  EXPECT_EQ(rs.rows.size(), 2u);
  ASSERT_OK_AND_ASSIGN(rs, plan.Execute({Value::Int(3)}));
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].string_value(), "z");
  ASSERT_OK_AND_ASSIGN(rs, plan.Execute({Value::Int(0)}));
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(PreparedPlanTest, QuestionMarkPlaceholdersAutoNumber) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT a FROM t WHERE a > ? AND b = ?"));
  EXPECT_EQ(plan.param_count(), 2);
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       plan.Execute({Value::Int(1), Value::Str("z")}));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(PreparedPlanTest, MissingParamsRejected) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT a FROM t WHERE a = $2"));
  EXPECT_EQ(plan.param_count(), 2);
  auto r = plan.Execute({Value::Int(1)});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PreparedPlanTest, ReExecutionSkipsParserAndPlanner) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan,
                       db_.Prepare("SELECT SUM(c) FROM t WHERE a >= $1"));
  ASSERT_OK(plan.Execute({Value::Int(1)}).status());
  StatsScope scope(db_.stats());
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(plan.Execute({Value::Int(i)}).status());
  }
  ExecStats d = scope.Delta();
  EXPECT_EQ(d.statements_parsed, 0u);
  EXPECT_EQ(d.statements_planned, 0u);
  EXPECT_EQ(d.prepare_count, 0u);
  EXPECT_EQ(d.plan_cache_hits, 5u);
}

TEST_F(PreparedPlanTest, DdlTransparentlyRecompiles) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan, db_.Prepare("SELECT COUNT(*) FROM t"));
  ASSERT_OK_AND_ASSIGN(ResultSet rs, plan.Execute());
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
  // Unrelated DDL moves the compilation version; the handle recompiles once
  // and keeps working against the (possibly relocated) catalog objects.
  ASSERT_OK(db_.Execute("CREATE TABLE other (x INTEGER)").status());
  StatsScope scope(db_.stats());
  ASSERT_OK_AND_ASSIGN(rs, plan.Execute());
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
  EXPECT_EQ(scope.Delta().prepare_count, 1u);
  EXPECT_EQ(scope.Delta().statements_parsed, 0u);  // recompile is parse-free
}

TEST_F(PreparedPlanTest, DroppedTableFailsThenRecoversAfterRecreate) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan plan, db_.Prepare("SELECT COUNT(*) FROM t"));
  ASSERT_OK(plan.Execute().status());
  ASSERT_OK(db_.Execute("DROP TABLE t").status());
  EXPECT_FALSE(plan.Execute().ok());
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE t (a INTEGER, b VARCHAR(10), c DECIMAL(15,2));"
      "INSERT INTO t VALUES (9, 'q', 0.10)"));
  ASSERT_OK_AND_ASSIGN(ResultSet rs, plan.Execute());
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);
}

TEST_F(PreparedPlanTest, PreparedDmlReExecutes) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan ins,
                       db_.Prepare("INSERT INTO t VALUES ($1, $2, $3)"));
  EXPECT_EQ(ins.param_count(), 3);
  ASSERT_OK(
      ins.Execute({Value::Int(10), Value::Str("p"), Value::Dec(Decimal())})
          .status());
  ASSERT_OK(
      ins.Execute({Value::Int(11), Value::Str("q"), Value::Dec(Decimal())})
          .status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Execute("SELECT COUNT(*) FROM t WHERE a >= 10"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 2);

  ASSERT_OK_AND_ASSIGN(PreparedPlan del,
                       db_.Prepare("DELETE FROM t WHERE a = ?"));
  ASSERT_OK(del.Execute({Value::Int(10)}).status());
  ASSERT_OK(del.Execute({Value::Int(11)}).status());
  ASSERT_OK_AND_ASSIGN(rs, db_.Execute("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(PreparedPlanTest, PreparedDmlBindsOnce) {
  // DML carries a bound plan (predicates, assignments and VALUES expressions
  // bound at compile time): re-execution must not touch the parser or the
  // binder (statements_planned counts DML binding as a compilation).
  ASSERT_OK_AND_ASSIGN(PreparedPlan ins,
                       db_.Prepare("INSERT INTO t VALUES ($1, $2, $3)"));
  ASSERT_OK_AND_ASSIGN(PreparedPlan up,
                       db_.Prepare("UPDATE t SET b = $1 WHERE a = $2"));
  // First executions amortize the compile.
  ASSERT_OK(ins.Execute({Value::Int(20), Value::Str("a"), Value::Dec(Decimal())})
                .status());
  ASSERT_OK(up.Execute({Value::Str("b0"), Value::Int(20)}).status());
  StatsScope scope(db_.stats());
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(ins.Execute({Value::Int(21 + i), Value::Str("r"),
                           Value::Dec(Decimal())})
                  .status());
    ASSERT_OK(up.Execute({Value::Str("r2"), Value::Int(21 + i)}).status());
  }
  ExecStats d = scope.Delta();
  EXPECT_EQ(d.statements_parsed, 0u);
  EXPECT_EQ(d.statements_planned, 0u);  // no re-binding across executes
  EXPECT_EQ(d.prepare_count, 0u);
  EXPECT_EQ(d.plan_cache_hits, 10u);
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Execute("SELECT COUNT(*) FROM t WHERE b = 'r2'"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 5);
}

TEST_F(PreparedPlanTest, PreparedDmlRebindsAfterDdl) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan del,
                       db_.Prepare("DELETE FROM t WHERE a = $1"));
  ASSERT_OK(del.Execute({Value::Int(1)}).status());
  // DDL moves the compilation version; the bound DML (which caches a raw
  // table pointer) must recompile instead of touching a relocated table.
  ASSERT_OK(db_.Execute("CREATE TABLE unrelated (x INTEGER)").status());
  StatsScope scope(db_.stats());
  ASSERT_OK(del.Execute({Value::Int(2)}).status());
  EXPECT_EQ(scope.Delta().prepare_count, 1u);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Execute("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);
}

TEST_F(PreparedPlanTest, InsertSelectSourcePlannedOnce) {
  ASSERT_OK(db_.Execute("CREATE TABLE t2 (a INTEGER, b VARCHAR(10), c "
                        "DECIMAL(15,2))")
                .status());
  ASSERT_OK_AND_ASSIGN(
      PreparedPlan ins,
      db_.Prepare("INSERT INTO t2 SELECT a, b, c FROM t WHERE a >= $1"));
  ASSERT_OK(ins.Execute({Value::Int(3)}).status());
  StatsScope scope(db_.stats());
  ASSERT_OK(ins.Execute({Value::Int(2)}).status());
  ASSERT_OK(ins.Execute({Value::Int(1)}).status());
  ExecStats d = scope.Delta();
  EXPECT_EQ(d.statements_planned, 0u);  // source plan compiled once
  EXPECT_EQ(d.statements_parsed, 0u);
  EXPECT_EQ(d.plan_cache_hits, 2u);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Execute("SELECT COUNT(*) FROM t2"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 6);  // 1 + 2 + 3 qualifying rows
}

TEST_F(PreparedPlanTest, OneshotExecutionIsNotACacheHit) {
  StatsScope scope(db_.stats());
  ASSERT_OK(db_.Execute("SELECT COUNT(*) FROM t").status());
  ASSERT_OK(db_.Execute("SELECT SUM(a) FROM t").status());
  ExecStats d = scope.Delta();
  EXPECT_EQ(d.prepare_count, 2u);
  EXPECT_EQ(d.plan_cache_hits, 0u);  // nothing was reused
}

TEST_F(PreparedPlanTest, ParamsInUpdateAssignments) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan up,
                       db_.Prepare("UPDATE t SET b = $1 WHERE a = $2"));
  ASSERT_OK(up.Execute({Value::Str("new"), Value::Int(1)}).status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Execute("SELECT b FROM t WHERE a = 1"));
  EXPECT_EQ(rs.rows[0][0].string_value(), "new");
}

TEST_F(PreparedPlanTest, UdfBodyReplannedAfterDdl) {
  ASSERT_OK(db_.Execute("CREATE FUNCTION maxa (INTEGER) RETURNS INTEGER AS "
                        "'SELECT MAX(a) FROM t WHERE a <= $1' LANGUAGE SQL "
                        "IMMUTABLE")
                .status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Execute("SELECT maxa(2)"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 2);
  // Dropping/recreating the table relocates it; the UDF body must not run
  // its stale plan (use-after-free) — it replans on every catalog DDL.
  ASSERT_OK(db_.Execute("DROP TABLE t").status());
  EXPECT_FALSE(db_.Execute("SELECT maxa(2)").ok());
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE t (a INTEGER, b VARCHAR(10), c DECIMAL(15,2));"
      "INSERT INTO t VALUES (7, 'n', 0.10)"));
  ASSERT_OK_AND_ASSIGN(rs, db_.Execute("SELECT maxa(10)"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 7);
}

TEST_F(PreparedPlanTest, SetScopeNotPreparable) {
  auto r = db_.Prepare("SET SCOPE = \"IN (1)\"");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A script prepares and executes each statement like Prepare + Execute do:
// run one by one through prepared handles, the same statements return the
// same result sets as every prefix of the script does as a whole, and each
// statement counts one compilation either way.
TEST_F(PreparedPlanTest, ScriptMatchesPreparedStatementByStatement) {
  const std::vector<std::string> stmts = {
      "INSERT INTO t VALUES (4, 'w', 4.50), (5, 'v', 5.50)",
      "CREATE TABLE t2 (a INTEGER, b VARCHAR(10), c DECIMAL(15,2))",
      "INSERT INTO t2 SELECT a, b, c FROM t WHERE a >= 3",
      "UPDATE t2 SET c = c * 2 WHERE a > 3",
      "DELETE FROM t WHERE a <= 2",
      "SELECT t.a, t.b, t2.c FROM t JOIN t2 ON t.a = t2.a ORDER BY t.a",
  };
  std::vector<ResultSet> prepared;
  StatsScope prepared_scope(db_.stats());
  for (const std::string& sql : stmts) {
    ASSERT_OK_AND_ASSIGN(PreparedPlan plan, db_.Prepare(sql));
    ASSERT_OK_AND_ASSIGN(ResultSet rs, plan.Execute());
    prepared.push_back(std::move(rs));
  }
  EXPECT_EQ(prepared_scope.Delta().prepare_count, stmts.size());
  ASSERT_EQ(prepared.back().rows.size(), 3u);

  std::string script;
  for (size_t i = 0; i < stmts.size(); ++i) {
    script += stmts[i] + ";\n";
    Database db;
    ASSERT_OK(db.ExecuteScript(kSetup));
    StatsScope scope(db.stats());
    ASSERT_OK_AND_ASSIGN(ResultSet rs, db.ExecuteScript(script));
    EXPECT_EQ(scope.Delta().prepare_count, i + 1) << script;
    EXPECT_EQ(rs.column_names, prepared[i].column_names) << stmts[i];
    EXPECT_EQ(CanonRows(rs.rows), CanonRows(prepared[i].rows)) << stmts[i];
  }
}

TEST_F(PreparedPlanTest, ScriptErrorsCarryStatementIndex) {
  auto r = db_.ExecuteScript(
      "INSERT INTO t VALUES (4, 'w', 4.50);"
      "SELECT * FROM missing_table;"
      "SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("statement 2:"), std::string::npos)
      << r.status().ToString();
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
