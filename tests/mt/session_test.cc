// End-to-end middleware tests on the paper's running example (Figure 2).
#include "mt/session.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "mt/mtbase.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mt {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<engine::Database>();
    mw_ = std::make_unique<Middleware>(db_.get());
    mw_->RegisterTenant(0);
    mw_->RegisterTenant(1);
    ASSERT_OK(db_->ExecuteScript(R"(
      CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL);
      CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,
        CT_to_universal DECIMAL(15,6) NOT NULL, CT_from_universal DECIMAL(15,6) NOT NULL);
      INSERT INTO Tenant VALUES (0, 0), (1, 1);
      INSERT INTO CurrencyTransform VALUES (0, 1, 1), (1, 0.5, 2);
      CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
        AS 'SELECT CT_to_universal*$1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE;
      CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
        AS 'SELECT CT_from_universal*$1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key' LANGUAGE SQL IMMUTABLE;
    )"));
    ConversionPair currency;
    currency.name = "currency";
    currency.to_universal = "currencyToUniversal";
    currency.from_universal = "currencyFromUniversal";
    currency.cls = ConversionClass::kMultiplicative;
    currency.inline_spec.kind = InlineSpec::Kind::kMultiplicative;
    currency.inline_spec.tenant_fk = "T_currency_key";
    currency.inline_spec.meta_table = "CurrencyTransform";
    currency.inline_spec.meta_key = "CT_currency_key";
    currency.inline_spec.to_col = "CT_to_universal";
    currency.inline_spec.from_col = "CT_from_universal";
    ASSERT_OK(mw_->conversions()->Register(currency));

    Session admin(mw_.get(), 0);
    ASSERT_OK(admin.Execute(R"(CREATE TABLE Employees SPECIFIC (
        E_emp_id INTEGER NOT NULL SPECIFIC,
        E_name VARCHAR(25) NOT NULL COMPARABLE,
        E_role_id INTEGER NOT NULL SPECIFIC,
        E_reg_id INTEGER NOT NULL COMPARABLE,
        E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
        E_age INTEGER NOT NULL COMPARABLE))"));
    ASSERT_OK(admin.Execute(R"(CREATE TABLE Roles SPECIFIC (
        R_role_id INTEGER NOT NULL SPECIFIC,
        R_name VARCHAR(25) NOT NULL COMPARABLE))"));
    // Tenant 0 data (USD): Figure 2.
    ASSERT_OK(admin.Execute(
        "INSERT INTO Employees VALUES (0,'Patrick',1,3,50000,30),"
        "(1,'John',0,3,70000,28),(2,'Alice',2,3,150000,46)"));
    ASSERT_OK(admin.Execute(
        "INSERT INTO Roles VALUES (0,'phD stud.'),(1,'postdoc'),(2,'professor')"));
    // Tenant 1 data (currency 1: 1 unit = 0.5 USD).
    Session t1(mw_.get(), 1);
    ASSERT_OK(t1.Execute(
        "INSERT INTO Employees VALUES (0,'Allan',1,2,160000,25),"
        "(1,'Nancy',2,4,400000,72),(2,'Ed',0,4,2000000,46)"));
    ASSERT_OK(t1.Execute(
        "INSERT INTO Roles VALUES (0,'intern'),(1,'researcher'),(2,'executive')"));
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Middleware> mw_;
};

TEST_F(SessionTest, DefaultScopeIsOwnData) {
  Session s(mw_.get(), 0);
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(SessionTest, ScopeWithoutGrantIsPruned) {
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (0, 1)\""));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  // Tenant 1 never granted access: D' = {0}.
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(SessionTest, GrantOpensAccessAndRevokeClosesIt) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (0, 1)\""));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 6);
  ASSERT_OK(t1.Execute("REVOKE READ ON DATABASE FROM 0"));
  ASSERT_OK_AND_ASSIGN(rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(SessionTest, PerTableGrant) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON Roles TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (0, 1)\""));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Roles"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 6);
  // Employees not granted: pruned back to own data.
  ASSERT_OK_AND_ASSIGN(rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(SessionTest, ClientPresentationInClientFormat) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  // Tenant 0 (USD) sees Ed's 2,000,000 (currency 1) as 1,000,000 USD.
  Session s0(mw_.get(), 0);
  ASSERT_OK(s0.Execute("SET SCOPE = \"IN (1)\""));
  ASSERT_OK_AND_ASSIGN(
      auto rs, s0.Execute("SELECT MAX(E_salary) FROM Employees"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 1000000.0);
  // Tenant 1 asking the same query sees her own format.
  Session s1(mw_.get(), 1);
  ASSERT_OK(s1.Execute("SET SCOPE = \"IN (1)\""));
  ASSERT_OK_AND_ASSIGN(rs, s1.Execute("SELECT MAX(E_salary) FROM Employees"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 2000000.0);
}

TEST_F(SessionTest, CrossTenantJoinRespectsTtid) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (0, 1)\""));
  ASSERT_OK_AND_ASSIGN(
      auto rs,
      s.Execute("SELECT E_name, R_name FROM Employees, Roles WHERE "
                "E_role_id = R_role_id ORDER BY E_name"));
  ASSERT_EQ(rs.rows.size(), 6u);
  // John (tenant 0, role 0) maps to 'phD stud.', not tenant 1's 'intern'.
  for (const auto& row : rs.rows) {
    if (row[0].string_value() == "John") {
      EXPECT_EQ(row[1].string_value(), "phD stud.");
    }
    if (row[0].string_value() == "Ed") {
      EXPECT_EQ(row[1].string_value(), "intern");
    }
  }
}

TEST_F(SessionTest, EmptyInListMeansAllTenants) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN ()\""));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 6);
}

TEST_F(SessionTest, ComplexScopeSelectsQualifyingTenants) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  // Listing 2: tenants owning an employee earning > 180K (in C's format, USD).
  // Tenant 0 max = 150K USD; tenant 1 max = 1M USD -> only tenant 1.
  ASSERT_OK(s.Execute("SET SCOPE = \"FROM Employees WHERE E_salary > 180000\""));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
  ASSERT_OK_AND_ASSIGN(rs, s.Execute("SELECT MIN(E_name) FROM Employees"));
  EXPECT_EQ(rs.rows[0][0].string_value(), "Allan");
}

TEST_F(SessionTest, AllLevelsAgreeOnCrossTenantAggregate) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (0, 1)\""));
  double expected = -1;
  for (OptLevel level :
       {OptLevel::kCanonical, OptLevel::kO1, OptLevel::kO2, OptLevel::kO3,
        OptLevel::kO4, OptLevel::kInlineOnly}) {
    s.set_optimization_level(level);
    ASSERT_OK_AND_ASSIGN(
        auto rs,
        s.Execute("SELECT SUM(E_salary), AVG(E_salary), COUNT(*) FROM "
                  "Employees WHERE E_salary > 60000"));
    double sum = rs.rows[0][0].AsDouble();
    if (expected < 0) expected = sum;
    EXPECT_DOUBLE_EQ(sum, expected) << OptLevelName(level);
    EXPECT_EQ(rs.rows[0][2].int_value(), 5) << OptLevelName(level);
  }
}

TEST_F(SessionTest, DmlOnBehalfOfOtherTenantConverts) {
  // Paper Appendix A.2: tenant 0 copies a record to tenant 1, the salary is
  // converted into tenant 1's format.
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (1)\""));
  ASSERT_OK(s.Execute(
      "INSERT INTO Employees VALUES (7, 'Zoe', 1, 3, 90000, 31)"));
  Session check(mw_.get(), 1);
  ASSERT_OK_AND_ASSIGN(
      auto rs,
      check.Execute("SELECT E_salary FROM Employees WHERE E_emp_id = 7"));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 180000.0);  // 90000 USD * 2
}

TEST_F(SessionTest, UpdateAcrossTenantsConvertsPerOwner) {
  Session t1(mw_.get(), 1);
  ASSERT_OK(t1.Execute("GRANT READ ON DATABASE TO 0"));
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("SET SCOPE = \"IN (0, 1)\""));
  ASSERT_OK(s.Execute("UPDATE Employees SET E_salary = 99000 WHERE E_age = 46"));
  Session c1(mw_.get(), 1);
  ASSERT_OK_AND_ASSIGN(auto rs, c1.Execute(
      "SELECT E_salary FROM Employees WHERE E_name = 'Ed'"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 198000.0);
  Session c0(mw_.get(), 0);
  ASSERT_OK_AND_ASSIGN(rs, c0.Execute(
      "SELECT E_salary FROM Employees WHERE E_name = 'Alice'"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].AsDouble(), 99000.0);
}

TEST_F(SessionTest, DeleteScopedToDataset) {
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute("DELETE FROM Roles WHERE R_role_id = 0"));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM Roles"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 2);
  // Tenant 1's role 0 untouched.
  Session c1(mw_.get(), 1);
  ASSERT_OK_AND_ASSIGN(rs, c1.Execute("SELECT COUNT(*) FROM Roles"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 3);
}

TEST_F(SessionTest, RejectionSurfacesAsError) {
  Session s(mw_.get(), 0);
  auto r = s.Execute("SELECT 1 FROM Employees WHERE E_role_id = E_age");
  EXPECT_EQ(r.status().code(), StatusCode::kRejected);
}

TEST_F(SessionTest, IllTypedBuiltinIsAStatusWithAuditOff) {
  // With the rewrite auditor's gate off (the release default) nothing types
  // the statement before execution: the engine itself must refuse it.
  const char* env = std::getenv("MTBASE_AUDIT_REWRITES");
  const std::string saved = env != nullptr ? env : "";
  setenv("MTBASE_AUDIT_REWRITES", "0", 1);
  Session s(mw_.get(), 0);
  auto r = s.Execute("SELECT UPPER(E_emp_id) FROM Employees");
  if (env != nullptr) {
    setenv("MTBASE_AUDIT_REWRITES", saved.c_str(), 1);
  } else {
    unsetenv("MTBASE_AUDIT_REWRITES");
  }
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The parser's nesting bound holds end to end. A statement half the bound
// deep around a convertible column runs at the levels that wrap or move its
// conversion: the rewrite adds function calls around the column, and the
// engine parses the printed SQL again. Far past the bound, the statement is
// a syntax error, not a crash.
TEST_F(SessionTest, NestingBoundHoldsThroughTheRewrite) {
  // 1 * (1 * (... E_salary ...)): each level is one link and one
  // parenthesis, and the printer keeps both.
  std::string expr = "E_salary";
  for (int i = 0; i < sql::kMaxNestingDepth / 4; ++i) {
    expr = "1 * (" + expr + ")";
  }
  Session s(mw_.get(), 0);
  for (OptLevel level : {OptLevel::kCanonical, OptLevel::kO4}) {
    s.set_optimization_level(level);
    ASSERT_OK_AND_ASSIGN(
        auto rs, s.Execute("SELECT E_emp_id, " + expr +
                           " FROM Employees ORDER BY E_emp_id"));
    ASSERT_EQ(rs.rows.size(), 3u) << OptLevelName(level);
    if (level == OptLevel::kCanonical) {
      EXPECT_NE(s.last_sql().find("currencyToUniversal(E_salary"),
                std::string::npos);
    }
    EXPECT_DOUBLE_EQ(rs.rows[0][1].AsDouble(), 50000.0) << OptLevelName(level);
    EXPECT_DOUBLE_EQ(rs.rows[2][1].AsDouble(), 150000.0)
        << OptLevelName(level);
  }
  const std::string deep = std::string(100000, '(') + "E_salary" +
                           std::string(100000, ')');
  auto r = s.Execute("SELECT " + deep + " FROM Employees");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
  EXPECT_NE(r.status().message().find("expression nested too deeply"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(SessionTest, RewriteExposesGeneratedSql) {
  Session s(mw_.get(), 0);
  s.set_optimization_level(OptLevel::kCanonical);
  ASSERT_OK_AND_ASSIGN(std::string sql,
                       s.Rewrite("SELECT E_salary FROM Employees"));
  EXPECT_NE(sql.find("currencyToUniversal"), std::string::npos);
  ASSERT_OK(s.Execute("SELECT E_salary FROM Employees").status());
  EXPECT_EQ(s.last_sql(), sql);
}

TEST_F(SessionTest, CreateViewIsRewritten) {
  Session s(mw_.get(), 0);
  ASSERT_OK(s.Execute(
      "CREATE VIEW rich AS SELECT E_name FROM Employees WHERE E_salary > "
      "100000"));
  ASSERT_OK_AND_ASSIGN(auto rs, s.Execute("SELECT COUNT(*) FROM rich"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);  // Alice only (own data)
}

}  // namespace
}  // namespace mt
}  // namespace mtbase
