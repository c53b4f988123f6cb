// Unit tests for the static rewrite auditor (src/mt/audit/): invariant
// proofs over the paper's running-example schema (Figure 2), suppression
// legality, type soundness, the canonicalizing normalizer's cross-level
// equivalence evidence and the enforcement gate.
#include "mt/audit/audit.h"

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/udf.h"
#include "mt/audit/mutators.h"
#include "mt/audit/normalizer.h"
#include "mt/conversion.h"
#include "mt/mt_schema.h"
#include "mt/optimizer.h"
#include "mt/rewriter.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mt {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto employees = sql::ParseStatement(R"(CREATE TABLE Employees SPECIFIC (
        E_emp_id INTEGER NOT NULL SPECIFIC,
        E_name VARCHAR(25) NOT NULL COMPARABLE,
        E_role_id INTEGER NOT NULL SPECIFIC,
        E_reg_id INTEGER NOT NULL COMPARABLE,
        E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
        E_age INTEGER NOT NULL COMPARABLE))");
    ASSERT_OK(employees);
    ASSERT_OK(schema_.RegisterTable(*employees.value().create_table));
    auto roles = sql::ParseStatement(R"(CREATE TABLE Roles SPECIFIC (
        R_role_id INTEGER NOT NULL SPECIFIC,
        R_name VARCHAR(25) NOT NULL COMPARABLE))");
    ASSERT_OK(roles);
    ASSERT_OK(schema_.RegisterTable(*roles.value().create_table));
    auto regions = sql::ParseStatement(R"(CREATE TABLE Regions (
        Re_reg_id INTEGER NOT NULL,
        Re_name VARCHAR(25) NOT NULL))");
    ASSERT_OK(regions);
    ASSERT_OK(schema_.RegisterTable(*regions.value().create_table));

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
    ASSERT_OK(conversions_.Register(currency));

    sql::TypeDecl dec;
    dec.id = TypeId::kDecimal;
    dec.precision = 15;
    dec.scale = 2;
    sql::TypeDecl intt;
    intt.id = TypeId::kInt;
    RegisterUdf("currencyToUniversal", dec, {dec, intt});
    RegisterUdf("currencyFromUniversal", dec, {dec, intt});
  }

  void RegisterUdf(const std::string& name, const sql::TypeDecl& ret,
                   const std::vector<sql::TypeDecl>& args) {
    auto udf = std::make_unique<engine::Udf>();
    udf->name = name;
    udf->arg_types = args;
    udf->return_type = ret;
    udf->volatility = sql::Volatility::kImmutable;
    ASSERT_OK(udfs_.Register(std::move(udf)));
  }

  /// Rewrite an MTSQL statement for (client, dataset) under `opts`.
  std::vector<sql::Stmt> RewriteAll(const std::string& mtsql, int64_t client,
                                    std::vector<int64_t> dataset,
                                    RewriteOptions opts = {}) {
    Rewriter rw(&schema_, &conversions_, client, std::move(dataset), opts);
    auto stmt = sql::ParseStatement(mtsql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto out = rw.RewriteStatement(stmt.value());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? std::move(out).value() : std::vector<sql::Stmt>{};
  }

  audit::AuditContext MakeCtx(int64_t client, std::vector<int64_t> dataset,
                              std::vector<int64_t> all_tenants,
                              RewriteOptions opts = {}) {
    audit::AuditContext ctx;
    ctx.schema = &schema_;
    ctx.conversions = &conversions_;
    ctx.udfs = &udfs_;
    ctx.client = client;
    ctx.dataset = std::move(dataset);
    ctx.all_tenants = std::move(all_tenants);
    ctx.options = opts;
    return ctx;
  }

  audit::StatementAudit Audit(const sql::Stmt& stmt,
                              const audit::AuditContext& ctx) {
    audit::RewriteAuditor auditor(&ctx);
    audit::StatementAudit out;
    auditor.AuditRewrite(stmt, &out);
    return out;
  }

  static bool HasCode(const audit::StatementAudit& a, audit::AuditCode code) {
    for (const auto& v : a.violations) {
      if (v.code == code) return true;
    }
    return false;
  }

  MTSchema schema_;
  ConversionRegistry conversions_;
  engine::UdfRegistry udfs_;
};

// ---------------------------------------------------------------------------
// Rewrite invariants: clean rewrites audit clean, each mutator's damage is
// caught with its machine-readable code.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, CleanRewriteAuditsOk) {
  auto stmts = RewriteAll(
      "SELECT E_name, E_salary FROM Employees WHERE E_salary > 100", 0,
      {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(a.ok()) << a.Message();
  EXPECT_EQ(a.Summary(), "ok");
}

TEST_F(AuditTest, StrippedDFilterCaught) {
  auto stmts = RewriteAll("SELECT E_age FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_GT(audit::StripDFilters(&stmts[0]), 0);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kDFilterMissing)) << a.Message();
  EXPECT_NE(a.Summary().find("FAILED"), std::string::npos);
  EXPECT_NE(a.Summary().find("DFILTER_MISSING"), std::string::npos);
}

TEST_F(AuditTest, DFilterSetMismatchCaught) {
  // Rewritten for D' = {0, 1} but audited under the claim D' = {0, 2}.
  auto stmts = RewriteAll("SELECT E_age FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 2}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kDFilterSetMismatch))
      << a.Message();
}

TEST_F(AuditTest, UnbalancedConversionCaught) {
  auto stmts = RewriteAll("SELECT E_salary FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_GT(audit::UnbalanceConversionPairs(&stmts[0], &conversions_), 0);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kConversionUnbalanced))
      << a.Message();
  EXPECT_NE(a.Summary().find("CONVERSION_PAIR_UNBALANCED"),
            std::string::npos);
}

TEST_F(AuditTest, MissingConversionCaught) {
  // A raw convertible reference without drop_conversions provenance.
  auto stmt = sql::ParseStatement(
      "SELECT E_salary FROM Employees WHERE Employees.ttid IN (0, 1)");
  ASSERT_OK(stmt);
  audit::StatementAudit a = Audit(stmt.value(), MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kConversionMissing))
      << a.Message();
}

TEST_F(AuditTest, DroppedTtidJoinCaught) {
  auto stmts = RewriteAll(
      "SELECT E_name FROM Employees, Roles WHERE E_role_id = R_role_id", 0,
      {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_GT(audit::DropTtidJoinPredicates(&stmts[0]), 0);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kTtidJoinMissing)) << a.Message();
}

TEST_F(AuditTest, RevertedMembershipPairingCaught) {
  auto stmts = RewriteAll(
      "SELECT E_name FROM Employees WHERE E_role_id IN "
      "(SELECT R_role_id FROM Roles)",
      0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_GT(audit::DropTtidJoinPredicates(&stmts[0]), 0);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kTtidJoinMissing)) << a.Message();
}

TEST_F(AuditTest, LeakedTtidProjectionCaught) {
  auto stmts = RewriteAll("SELECT * FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(audit::LeakTtidThroughStar(&stmts[0], &schema_), 1);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kTtidProjectionLeak))
      << a.Message();
}

TEST_F(AuditTest, IncomparableComparisonCaught) {
  // The rewriter refuses this shape up front (section 2.4.2); feed the
  // auditor the un-rewritable statement directly to prove the independent
  // re-statement of the rule catches it too.
  auto stmt = sql::ParseStatement(
      "SELECT E_name FROM Employees WHERE E_role_id = E_age");
  ASSERT_OK(stmt);
  audit::StatementAudit a = Audit(stmt.value(), MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kIncomparableAttributes))
      << a.Message();
}

TEST_F(AuditTest, InsertTtidValidated) {
  auto stmts = RewriteAll(
      "INSERT INTO Employees VALUES (1, 'ann', 2, 3, 100, 30)", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 2u);  // one statement per tenant of D'
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  for (const auto& s : stmts) {
    audit::StatementAudit a = Audit(s, ctx);
    EXPECT_TRUE(a.ok()) << a.Message();
  }
  // Point one row's ttid outside D'.
  ASSERT_FALSE(stmts[0].insert->rows.empty());
  stmts[0].insert->rows[0].back() = sql::IntLit(7);
  audit::StatementAudit a = Audit(stmts[0], ctx);
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kInsertTtidInvalid))
      << a.Message();
}

// ---------------------------------------------------------------------------
// o1 suppression legality (paper section 4.1).
// ---------------------------------------------------------------------------

TEST_F(AuditTest, LegalSuppressionsAuditOk) {
  RewriteOptions opts;
  opts.drop_dfilters = true;     // D' = all tenants below
  RewriteOptions single;
  single.drop_ttid_joins = true;  // |D'| = 1
  single.drop_conversions = true;  // D' = {C}

  auto all = RewriteAll("SELECT E_age FROM Employees", 0, {0, 1}, opts);
  ASSERT_EQ(all.size(), 1u);
  audit::StatementAudit a =
      Audit(all[0], MakeCtx(0, {0, 1}, {0, 1}, opts));
  EXPECT_TRUE(a.ok()) << a.Message();

  auto own = RewriteAll(
      "SELECT E_salary FROM Employees, Roles WHERE E_role_id = R_role_id", 0,
      {0}, single);
  ASSERT_EQ(own.size(), 1u);
  a = Audit(own[0], MakeCtx(0, {0}, {0, 1}, single));
  EXPECT_TRUE(a.ok()) << a.Message();
}

TEST_F(AuditTest, IllegalDFilterSuppressionCaught) {
  RewriteOptions opts;
  opts.drop_dfilters = true;
  auto stmts = RewriteAll("SELECT E_age FROM Employees", 0, {0, 1}, opts);
  ASSERT_EQ(stmts.size(), 1u);
  // D' = {0, 1} does not cover the universe {0, 1, 2}.
  audit::StatementAudit a =
      Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}, opts));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kDFilterSuppressionIllegal))
      << a.Message();
}

TEST_F(AuditTest, IllegalConversionSuppressionCaught) {
  RewriteOptions opts;
  opts.drop_conversions = true;
  auto stmts = RewriteAll("SELECT E_salary FROM Employees", 0, {0, 1}, opts);
  ASSERT_EQ(stmts.size(), 1u);
  // drop_conversions claimed although D' = {0, 1} != {C}.
  audit::StatementAudit a =
      Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}, opts));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kConversionSuppressionIllegal))
      << a.Message();
}

TEST_F(AuditTest, IllegalTtidJoinSuppressionCaught) {
  RewriteOptions opts;
  opts.drop_ttid_joins = true;
  auto stmts = RewriteAll(
      "SELECT E_name FROM Employees, Roles WHERE E_role_id = R_role_id", 0,
      {0, 1}, opts);
  ASSERT_EQ(stmts.size(), 1u);
  audit::StatementAudit a =
      Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}, opts));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kTtidJoinSuppressionIllegal))
      << a.Message();
}

TEST_F(AuditTest, IllegalOptionCombosRefusedByRewriter) {
  auto stmt = sql::ParseStatement("SELECT E_age FROM Employees");
  ASSERT_OK(stmt);
  RewriteOptions opts;
  opts.universe = {0, 1, 2};
  opts.drop_ttid_joins = true;
  {
    Rewriter rw(&schema_, &conversions_, 0, {0, 1}, opts);
    auto out = rw.RewriteStatement(stmt.value());
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().ToString().find(
                  "ILLEGAL_REWRITE_OPTIONS: drop_ttid_joins requires"),
              std::string::npos)
        << out.status().ToString();
  }
  opts.drop_ttid_joins = false;
  opts.drop_conversions = true;
  {
    Rewriter rw(&schema_, &conversions_, 0, {1}, opts);
    auto out = rw.RewriteStatement(stmt.value());
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().ToString().find(
                  "ILLEGAL_REWRITE_OPTIONS: drop_conversions requires"),
              std::string::npos)
        << out.status().ToString();
  }
  opts.drop_conversions = false;
  opts.drop_dfilters = true;
  {
    Rewriter rw(&schema_, &conversions_, 0, {0, 1}, opts);
    auto out = rw.RewriteStatement(stmt.value());
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().ToString().find(
                  "ILLEGAL_REWRITE_OPTIONS: drop_dfilters requires"),
              std::string::npos)
        << out.status().ToString();
  }
  // An empty universe (bare Rewriter) skips the validation entirely.
  opts.universe.clear();
  Rewriter rw(&schema_, &conversions_, 0, {0, 1}, opts);
  EXPECT_OK(rw.RewriteStatement(stmt.value()).status());
}

// ---------------------------------------------------------------------------
// Type soundness (tentpole part 2).
// ---------------------------------------------------------------------------

TEST_F(AuditTest, TypeMismatchCaught) {
  auto stmts = RewriteAll(
      "SELECT E_name FROM Employees WHERE E_age > 'abc'", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kTypeMismatch)) << a.Message();
}

TEST_F(AuditTest, UnknownFunctionCaught) {
  auto stmts =
      RewriteAll("SELECT nosuchfn(E_age) FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kUnknownFunction)) << a.Message();
}

TEST_F(AuditTest, FunctionArityMismatchCaught) {
  auto stmts = RewriteAll(
      "SELECT currencyToUniversal(E_age) FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  audit::StatementAudit a = Audit(stmts[0], MakeCtx(0, {0, 1}, {0, 1, 2}));
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kFunctionArityMismatch))
      << a.Message();
}

// ---------------------------------------------------------------------------
// Cross-level equivalence (tentpole part 3): the conversion push-up (o2)
// normalizes back to the canonical form; legal o1 elisions normalize to the
// canonical form under caller-proven legality options; the restructuring
// passes are recognized by their artifacts.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, PushUpNormalizesToCanonical) {
  auto stmts = RewriteAll(
      "SELECT E_name FROM Employees WHERE E_salary > 100 "
      "ORDER BY E_salary",
      0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  auto pre = stmts[0].select->Clone();
  Optimizer opt(&conversions_, 0);
  ASSERT_OK(opt.Optimize(stmts[0].select.get(), OptLevel::kO2));
  // The optimizer moved the wrappers; the printed texts differ...
  EXPECT_NE(sql::PrintSelect(*pre), sql::PrintSelect(*stmts[0].select));
  // ...but both normalize to the same canonical text.
  EXPECT_EQ(audit::NormalizeSelectText(*pre, &conversions_),
            audit::NormalizeSelectText(*stmts[0].select, &conversions_));

  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::StatementAudit a;
  auditor.AuditOptimized(*pre, *stmts[0].select, &a);
  EXPECT_EQ(a.equivalence, audit::EquivalenceCode::kCanonical);
  EXPECT_TRUE(a.ok()) << a.Message();
  EXPECT_EQ(a.Summary(), "ok, equivalence: canonical");
}

TEST_F(AuditTest, O1ElisionsNormalizeToCanonicalUnderProvenLegality) {
  const std::string q =
      "SELECT E_name, E_salary FROM Employees, Roles "
      "WHERE E_role_id = R_role_id AND E_salary > 100";
  // Canonical rewrite for D' = {0} vs the o1 rewrite (drops conversions and
  // ttid joins; D-filters stay since {0} is not all tenants).
  auto canonical = RewriteAll(q, 0, {0});
  RewriteOptions o1;
  o1.drop_ttid_joins = true;
  o1.drop_conversions = true;
  auto elided = RewriteAll(q, 0, {0}, o1);
  ASSERT_EQ(canonical.size(), 1u);
  ASSERT_EQ(elided.size(), 1u);
  audit::NormalizeOptions norm;
  norm.elide_wrappers = true;    // legal: D' = {C}
  norm.strip_ttid_joins = true;  // legal: |D'| = 1
  EXPECT_EQ(
      audit::NormalizeSelectText(*canonical[0].select, &conversions_, norm),
      audit::NormalizeSelectText(*elided[0].select, &conversions_));

  // D-filter elision: canonical for D' = all tenants vs drop_dfilters.
  auto filtered = RewriteAll(q, 0, {0, 1});
  RewriteOptions all;
  all.drop_dfilters = true;
  auto unfiltered = RewriteAll(q, 0, {0, 1}, all);
  ASSERT_EQ(filtered.size(), 1u);
  ASSERT_EQ(unfiltered.size(), 1u);
  audit::NormalizeOptions strip;
  strip.strip_dfilter_literals = {0, 1};  // legal: D' covers all tenants
  EXPECT_EQ(
      audit::NormalizeSelectText(*filtered[0].select, &conversions_, strip),
      audit::NormalizeSelectText(*unfiltered[0].select, &conversions_));
}

TEST_F(AuditTest, AggregationDistributionDivergenceNamed) {
  auto stmts = RewriteAll("SELECT SUM(E_salary) FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  auto pre = stmts[0].select->Clone();
  Optimizer opt(&conversions_, 0);
  ASSERT_OK(opt.Optimize(stmts[0].select.get(), OptLevel::kO3));
  ASSERT_NE(sql::PrintSelect(*stmts[0].select).find("__part"),
            std::string::npos)
      << sql::PrintSelect(*stmts[0].select);
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::StatementAudit a;
  auditor.AuditOptimized(*pre, *stmts[0].select, &a);
  EXPECT_EQ(a.equivalence, audit::EquivalenceCode::kDivergeAggDistribution);
  EXPECT_TRUE(a.ok()) << a.Message();
  EXPECT_EQ(a.Summary(), "ok, equivalence: DIVERGE_AGG_DISTRIBUTION");
}

TEST_F(AuditTest, ConversionInlineDivergenceNamed) {
  auto stmts = RewriteAll(
      "SELECT E_name FROM Employees WHERE E_salary > 100", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  auto pre = stmts[0].select->Clone();
  Optimizer opt(&conversions_, 0);
  ASSERT_OK(opt.Optimize(stmts[0].select.get(), OptLevel::kInlineOnly));
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::StatementAudit a;
  auditor.AuditOptimized(*pre, *stmts[0].select, &a);
  EXPECT_EQ(a.equivalence, audit::EquivalenceCode::kDivergeConversionInline)
      << sql::PrintSelect(*stmts[0].select);
  EXPECT_TRUE(a.ok()) << a.Message();
}

/// The first EXISTS sub-query in `e`, or nullptr.
sql::SelectStmt* FindExistsSubquery(sql::Expr* e) {
  if (e->kind == sql::ExprKind::kExists) return e->subquery.get();
  for (auto& a : e->args) {
    if (sql::SelectStmt* s = FindExistsSubquery(a.get())) return s;
  }
  return nullptr;
}

TEST_F(AuditTest, ConstantExistsListNormalizesToCanonical) {
  // The rewriter expands `*` into converted columns; o4 replaces the unread
  // list by `1` and so joins no meta table for it.
  auto stmts = RewriteAll(
      "SELECT R_name FROM Roles WHERE EXISTS (SELECT * FROM Employees "
      "WHERE E_role_id = R_role_id)",
      0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  auto pre = stmts[0].select->Clone();
  ASSERT_NE(sql::PrintSelect(*pre).find("currencyFromUniversal("),
            std::string::npos);
  Optimizer opt(&conversions_, 0);
  ASSERT_OK(opt.Optimize(stmts[0].select.get(), OptLevel::kO4));
  std::string out = sql::PrintSelect(*stmts[0].select);
  EXPECT_NE(out.find("EXISTS (SELECT 1 FROM Employees"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("CurrencyTransform"), std::string::npos) << out;
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::StatementAudit a;
  auditor.AuditOptimized(*pre, *stmts[0].select, &a);
  EXPECT_EQ(a.Summary(), "ok, equivalence: canonical") << a.Message();
}

TEST_F(AuditTest, ReplacedAggregateExistsListIsUnknownDivergence) {
  // An aggregate-only list returns one row over no input, so EXISTS is
  // TRUE; a constant list would return none. The normalizer must not treat
  // the two as the same.
  auto stmts = RewriteAll(
      "SELECT R_name FROM Roles WHERE EXISTS (SELECT MAX(E_salary) FROM "
      "Employees WHERE E_age < 0)",
      0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  auto pre = stmts[0].select->Clone();
  sql::SelectStmt* sub = FindExistsSubquery(stmts[0].select->where.get());
  ASSERT_NE(sub, nullptr);
  sub->items.clear();
  sql::SelectItem one;
  one.expr = sql::IntLit(1);
  sub->items.push_back(std::move(one));
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::StatementAudit a;
  auditor.AuditOptimized(*pre, *stmts[0].select, &a);
  EXPECT_EQ(a.equivalence, audit::EquivalenceCode::kUnknown);
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kEquivalenceUnknownDivergence))
      << a.Message();
}

TEST_F(AuditTest, UnexplainedDivergenceIsViolation) {
  auto stmts = RewriteAll("SELECT E_age FROM Employees", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 1u);
  auto pre = stmts[0].select->Clone();
  // Simulate a broken optimizer pass: silently change the D-filter literal.
  audit::StripDFilters(&stmts[0]);
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::StatementAudit a;
  auditor.AuditOptimized(*pre, *stmts[0].select, &a);
  EXPECT_EQ(a.equivalence, audit::EquivalenceCode::kUnknown);
  EXPECT_TRUE(HasCode(a, audit::AuditCode::kEquivalenceUnknownDivergence))
      << a.Message();
  EXPECT_NE(a.Summary().find("EQUIVALENCE_UNKNOWN_DIVERGENCE"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Enforcement gate.
// ---------------------------------------------------------------------------

TEST_F(AuditTest, AuditEnabledFollowsEnvironment) {
  setenv("MTBASE_AUDIT_REWRITES", "1", 1);
  EXPECT_TRUE(audit::AuditEnabled());
  setenv("MTBASE_AUDIT_REWRITES", "0", 1);
  EXPECT_FALSE(audit::AuditEnabled());
  unsetenv("MTBASE_AUDIT_REWRITES");
#ifndef NDEBUG
  EXPECT_TRUE(audit::AuditEnabled());  // always on in debug builds
#else
  EXPECT_FALSE(audit::AuditEnabled());
#endif
}

TEST_F(AuditTest, ReportAggregatesAcrossStatements) {
  auto stmts = RewriteAll(
      "INSERT INTO Employees VALUES (1, 'ann', 2, 3, 100, 30)", 0, {0, 1});
  ASSERT_EQ(stmts.size(), 2u);
  audit::AuditContext ctx = MakeCtx(0, {0, 1}, {0, 1, 2});
  audit::RewriteAuditor auditor(&ctx);
  audit::AuditReport report;
  report.statements.resize(stmts.size());
  for (size_t i = 0; i < stmts.size(); ++i) {
    // Break both per-tenant statements the same way: the report codes stay
    // deduplicated.
    stmts[i].insert->rows[0].back() = sql::IntLit(7);
    auditor.AuditRewrite(stmts[i], &report.statements[i]);
  }
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.total_violations(), 2u);
  EXPECT_EQ(report.Codes(), "INSERT_TTID_INVALID");
}

}  // namespace
}  // namespace mt
}  // namespace mtbase
