// PlanVerifier behavior at the engine level: structural and parallel-safety
// invariants, tenant-isolation slot-dominance analysis under a manual
// VerifyContext, the enforcement gate (MTBASE_VERIFY_PLANS), the EXPLAIN
// (VERIFY) annotation and the ExecStats counters. The negative cases break
// plans through the test mutation hook (or build broken plans by hand) and
// assert each violation class is caught with its machine-readable code.
#include <cstdlib>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/explain.h"
#include "engine/verify/mutators.h"
#include "engine/verify/verifier.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE acc (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
        "balance INTEGER NOT NULL)"));
    Table* t = db_.catalog()->FindTable("acc");
    for (int64_t ttid = 1; ttid <= 3; ++ttid) {
      for (int64_t i = 0; i < 4; ++i) {
        ASSERT_OK(t->Insert(
            {Value::Int(ttid), Value::Int(ttid * 10 + i), Value::Int(i * 7)}));
      }
    }
  }

  /// Tenant checking on: "acc" is tenant-specific, D' = {1, 2}.
  verify::VerifyContext TenantCtx() {
    verify::VerifyContext ctx;
    ctx.check_tenant = true;
    ctx.tenant_tables = {"acc"};
    ctx.expected_tenants = {1, 2};
    return ctx;
  }

  Database db_;
};

TEST_F(VerifyTest, CleanPlansPassAndAreCounted) {
  ScopedVerifyEnv env("1");
  StatsScope stats(db_.stats());
  ASSERT_OK_AND_ASSIGN(auto rs,
                       db_.Execute("SELECT id FROM acc WHERE balance > 0"));
  EXPECT_FALSE(rs.rows.empty());
  EXPECT_GT(stats.Delta().plans_verified, 0u);
  EXPECT_EQ(stats.Delta().verify_violations, 0u);
}

// Regression (found by ASan): verifying a statement that calls a UDF whose
// body plan was staled by DDL must replan the body first, not walk a plan
// holding dangling catalog pointers.
TEST_F(VerifyTest, StaleUdfBodyReplannedBeforeVerification) {
  ScopedVerifyEnv env("1");
  ASSERT_OK(db_.Execute("CREATE FUNCTION maxid (INTEGER) RETURNS INTEGER AS "
                        "'SELECT MAX(id) FROM acc WHERE ttid = $1' "
                        "LANGUAGE SQL IMMUTABLE")
                .status());
  ASSERT_OK(db_.Execute("SELECT maxid(1)").status());
  // DROP + CREATE relocates the table the body reads; the next compile
  // verifies (and therefore walks) the body before any execute-path refresh.
  ASSERT_OK(db_.Execute("DROP TABLE acc").status());
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE acc (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
      "balance INTEGER NOT NULL); INSERT INTO acc VALUES (1, 42, 0)"));
  ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute("SELECT maxid(1)"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 42);
}

TEST_F(VerifyTest, DisabledByZeroEnv) {
  ScopedVerifyEnv env("0");
  StatsScope stats(db_.stats());
  ASSERT_OK(db_.Execute("SELECT id FROM acc").status());
  EXPECT_EQ(stats.Delta().plans_verified, 0u);
}

TEST_F(VerifyTest, BrokenSortKeyRefused) {
  ScopedVerifyEnv env("1");
  db_.set_plan_mutation_hook_for_testing([](Plan* p) {
    EXPECT_TRUE(verify::BreakFirstSortKey(p));
  });
  StatsScope stats(db_.stats());
  auto r = db_.Execute("SELECT id FROM acc ORDER BY balance");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("SORT_KEY_OUT_OF_RANGE"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_GT(stats.Delta().verify_violations, 0u);
}

TEST_F(VerifyTest, MislabeledSerialOperatorRefused) {
  ScopedVerifyEnv env("1");
  // A bare LIMIT (no ORDER BY, so no top-N fusion) is a serial-only
  // operator: flipping its parallel_safe flag must trip the independent
  // restatement of the safety rules.
  db_.set_plan_mutation_hook_for_testing([](Plan* p) {
    EXPECT_TRUE(verify::MislabelFirstSerialNode(p));
  });
  auto r = db_.Execute("SELECT id FROM acc LIMIT 2 OFFSET 1");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("PARALLEL_UNSAFE_SUBPLAN"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, UnfilteredTenantScanRefused) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  auto r = db_.Execute("SELECT id FROM acc");
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_PREDICATE_MISSING"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, DominatingTenantPredicateAccepted) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  // Both D-filter shapes the rewriter emits: IN list and equality.
  EXPECT_OK(db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 2)").status());
  EXPECT_OK(db_.Execute("SELECT id FROM acc WHERE ttid = 1 AND balance > 0")
                .status());
  db_.set_verify_context(verify::VerifyContext());
}

TEST_F(VerifyTest, SupersetTenantPredicateRefused) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  // ttid 3 exists in the data but is outside the expected dataset {1, 2}.
  auto r = db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 3)");
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_SET_MISMATCH"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(VerifyTest, TtidEquiJoinTransfersRestriction) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  // Only one side carries the D-filter; the ttid equi-join key propagates
  // the restriction to the other side (the rewriter's ttid-join pattern).
  EXPECT_OK(db_.Execute("SELECT a.id, b.id FROM acc a, acc b "
                        "WHERE a.ttid = b.ttid AND a.ttid IN (1, 2) "
                        "AND a.id = b.id")
                .status());
  db_.set_verify_context(verify::VerifyContext());
}

TEST_F(VerifyTest, AllowUnfilteredAdmitsBareScans) {
  ScopedVerifyEnv env("1");
  verify::VerifyContext ctx = TenantCtx();
  ctx.allow_unfiltered = true;  // o1 elided the D-filters: D' = all tenants
  db_.set_verify_context(ctx);
  StatsScope stats(db_.stats());
  EXPECT_OK(db_.Execute("SELECT id FROM acc").status());
  EXPECT_EQ(stats.Delta().verify_violations, 0u);
  db_.set_verify_context(verify::VerifyContext());
}

TEST_F(VerifyTest, StrippedTenantPredicateCaught) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  int stripped = 0;
  db_.set_plan_mutation_hook_for_testing([&stripped](Plan* p) {
    stripped += verify::StripTenantPredicates(p, "ttid");
  });
  auto r = db_.Execute("SELECT id FROM acc WHERE ttid IN (1, 2)");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  db_.set_verify_context(verify::VerifyContext());
  EXPECT_GT(stripped, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("TENANT_PREDICATE_MISSING"),
            std::string::npos)
      << r.status().ToString();
}

// A scan emits only the columns its plan reads (Plan::emit) while its filter
// reads the schema row: a ttid the projection drops is beyond every
// ancestor's reach, so it must be restricted by the scan's own filter — and
// a predicate on the column that took its output slot must not count.
TEST_F(VerifyTest, ScanProjectionWithoutTtidNeedsItsOwnDFilter) {
  verify::VerifyContext ctx = TenantCtx();
  verify::PlanVerifier verifier(&ctx);
  Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
  struct Case {
    const char* sql;
    bool ok;
  };
  const Case cases[] = {
      {"SELECT id FROM acc", false},
      {"SELECT id FROM acc WHERE ttid IN (1, 2)", true},
      // id lands in output slot 0, where the unpruned layout had ttid.
      {"SELECT x.id FROM (SELECT id FROM acc) x WHERE x.id IN (1, 2)", false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    ASSERT_OK_AND_ASSIGN(sql::Stmt stmt, sql::ParseStatement(c.sql));
    ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
    const Plan* scan = plan.get();
    while (scan->left) scan = scan->left.get();
    ASSERT_EQ(scan->kind, Plan::Kind::kScan);
    ASSERT_TRUE(scan->emit.has_value());
    EXPECT_EQ(*scan->emit, std::vector<int>{1});  // id only; ttid is slot 0
    verify::VerifyResult r = verifier.Verify(*plan);
    if (c.ok) {
      EXPECT_TRUE(r.ok()) << r.Message();
      continue;
    }
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations[0].code,
              verify::ViolationCode::kTenantPredicateMissing);
    EXPECT_NE(r.violations[0].subtree.find("Scan acc"), std::string::npos)
        << r.violations[0].subtree;
  }
}

// A derived table's projection computes only what the outer query reads:
// an unread ttid is dropped at the scan, so only a D-filter inside the
// derived table can restrict it.
TEST_F(VerifyTest, NarrowedDerivedTableNeedsItsOwnDFilter) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  auto refused = db_.Execute("SELECT x.id FROM (SELECT id, ttid FROM acc) x");
  auto accepted = db_.Execute(
      "SELECT x.id FROM (SELECT id, ttid FROM acc WHERE ttid IN (1, 2)) x");
  db_.set_verify_context(verify::VerifyContext());
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("TENANT_PREDICATE_MISSING"),
            std::string::npos)
      << refused.status().ToString();
  ASSERT_OK(accepted.status());
  EXPECT_EQ(accepted.value().rows.size(), 8u);
}

// The verify context belongs to the database that set it: another database
// driven from the same thread (a plain TPC-H baseline next to an MT-H
// database) verifies its own plans with engine-level checks only.
TEST_F(VerifyTest, VerifyContextScopedToItsDatabase) {
  ScopedVerifyEnv env("1");
  Database other;
  ASSERT_OK(other.ExecuteScript(
      "CREATE TABLE acc (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
      "balance INTEGER NOT NULL); INSERT INTO acc VALUES (7, 1, 0)"));
  db_.set_verify_context(TenantCtx());
  auto on_other = other.Execute("SELECT id FROM acc");
  auto on_owner = db_.Execute("SELECT id FROM acc");
  db_.set_verify_context(verify::VerifyContext());
  EXPECT_OK(on_other.status());
  ASSERT_FALSE(on_owner.ok());
  EXPECT_NE(on_owner.status().ToString().find("TENANT_PREDICATE_MISSING"),
            std::string::npos)
      << on_owner.status().ToString();
}

TEST_F(VerifyTest, ExplainVerifyAnnotation) {
  verify::VerifyContext ctx = TenantCtx();
  ASSERT_OK_AND_ASSIGN(sql::Stmt ok_stmt,
                       sql::ParseStatement(
                           "SELECT id FROM acc WHERE ttid IN (1, 2)"));
  ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainSelect(db_.catalog(), db_.udfs(), *ok_stmt.select,
                    db_.planner_options(), &ctx));
  EXPECT_NE(text.find("[verify: ok]"), std::string::npos) << text;

  ASSERT_OK_AND_ASSIGN(sql::Stmt bad_stmt,
                       sql::ParseStatement("SELECT id FROM acc"));
  ASSERT_OK_AND_ASSIGN(
      text, ExplainSelect(db_.catalog(), db_.udfs(), *bad_stmt.select,
                          db_.planner_options(), &ctx));
  EXPECT_NE(text.find("[verify: FAILED TENANT_PREDICATE_MISSING]"),
            std::string::npos)
      << text;
}

// Structural checks over hand-built plans: these shapes cannot come out of
// the planner, so the verifier is driven directly.
TEST(VerifyStructuralTest, HandBuiltViolations) {
  verify::PlanVerifier verifier;

  // Projection referencing a slot past its input layout.
  {
    auto scan = std::make_unique<Plan>();
    scan->kind = Plan::Kind::kScan;  // dual scan: no table, zero columns
    Plan project;
    project.kind = Plan::Kind::kProject;
    project.columns = {{"", "x"}};
    auto e = std::make_unique<BoundExpr>();
    e->kind = BoundExpr::Kind::kSlot;
    e->slot = 5;
    project.exprs.push_back(std::move(e));
    project.left = std::move(scan);
    verify::VerifyResult r = verifier.Verify(project);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.violations[0].code, verify::ViolationCode::kSlotOutOfRange);
    EXPECT_NE(r.Summary().find("SLOT_OUT_OF_RANGE"), std::string::npos);
  }

  // Join with unpaired key lists.
  {
    Plan join;
    join.kind = Plan::Kind::kJoin;
    join.left = std::make_unique<Plan>();
    join.right = std::make_unique<Plan>();
    auto k = std::make_unique<BoundExpr>();
    k->kind = BoundExpr::Kind::kSlot;
    join.left_keys.push_back(std::move(k));
    verify::VerifyResult r = verifier.Verify(join);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const auto& v : r.violations) {
      found |= v.code == verify::ViolationCode::kJoinKeyMismatch;
    }
    EXPECT_TRUE(found) << r.Message();
  }

  // Negative LIMIT.
  {
    Plan limit;
    limit.kind = Plan::Kind::kLimit;
    limit.left = std::make_unique<Plan>();
    limit.limit = -7;
    verify::VerifyResult r = verifier.Verify(limit);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const auto& v : r.violations) {
      found |= v.code == verify::ViolationCode::kNegativeLimit;
    }
    EXPECT_TRUE(found) << r.Message();
  }

  // Scan projections over a real table's three-column schema row: emitted
  // slots must lie inside it, ascend, and match the output column count.
  Database db;
  ASSERT_OK(db.ExecuteScript("CREATE TABLE t3 (a INTEGER, b INTEGER, "
                             "c INTEGER)"));
  const Table* t3 = db.catalog()->FindTable("t3");
  auto first_code = [&verifier](const Plan& p) {
    verify::VerifyResult r = verifier.Verify(p);
    return std::string(
        r.ok() ? "ok" : verify::ViolationCodeName(r.violations[0].code));
  };
  struct ScanCase {
    std::vector<int> emit;
    size_t columns;
    const char* code;
  };
  const ScanCase scan_cases[] = {
      {{0, 2}, 2, "ok"},
      {{0, 3}, 2, "SLOT_OUT_OF_RANGE"},  // past the schema row
      {{2, 1}, 2, "SLOT_OUT_OF_RANGE"},  // out of order
      {{0, 2}, 3, "ARITY_MISMATCH"},     // columns disagree with emit
  };
  for (const ScanCase& c : scan_cases) {
    Plan scan;
    scan.kind = Plan::Kind::kScan;
    scan.table = t3;
    scan.emit = c.emit;
    scan.columns.resize(c.columns);
    EXPECT_EQ(first_code(scan), c.code)
        << "emit size " << c.emit.size() << ", columns " << c.columns;
  }

  // A join emitting a slot past concat(left, right) — two dual scans.
  {
    Plan join;
    join.kind = Plan::Kind::kJoin;
    join.left = std::make_unique<Plan>();
    join.right = std::make_unique<Plan>();
    join.emit = std::vector<int>{0};
    join.columns.resize(1);
    EXPECT_EQ(first_code(join), "SLOT_OUT_OF_RANGE");
  }

  // Aggregate output arity disagreeing with keys + aggregates.
  {
    Plan agg;
    agg.kind = Plan::Kind::kAggregate;
    agg.left = std::make_unique<Plan>();
    agg.columns = {{"", "a"}, {"", "b"}, {"", "c"}};
    agg.aggs.emplace_back();  // COUNT(*), one output — three promised
    verify::VerifyResult r = verifier.Verify(agg);
    ASSERT_FALSE(r.ok());
    bool found = false;
    for (const auto& v : r.violations) {
      found |= v.code == verify::ViolationCode::kArityMismatch;
    }
    EXPECT_TRUE(found) << r.Message();
  }
}

// Violation rendering: the refusal message carries the code and the
// offending subtree in EXPLAIN grammar.
TEST_F(VerifyTest, ViolationCarriesExplainSubtree) {
  verify::VerifyContext ctx = TenantCtx();
  verify::PlanVerifier verifier(&ctx);
  ASSERT_OK_AND_ASSIGN(sql::Stmt stmt,
                       sql::ParseStatement("SELECT id FROM acc"));
  Planner planner(db_.catalog(), db_.udfs(), db_.planner_options());
  ASSERT_OK_AND_ASSIGN(PlanPtr plan, planner.PlanSelect(*stmt.select));
  verify::VerifyResult r = verifier.Verify(*plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].code,
            verify::ViolationCode::kTenantPredicateMissing);
  EXPECT_NE(r.violations[0].subtree.find("Scan acc"), std::string::npos)
      << r.violations[0].subtree;
  EXPECT_NE(r.Message().find("TENANT_PREDICATE_MISSING"), std::string::npos);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
