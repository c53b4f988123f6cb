#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/printer.h"
#include "tests/test_util.h"

namespace mtbase {
namespace sql {
namespace {

TEST(ParserTest, SimpleSelect) {
  ASSERT_OK_AND_ASSIGN(auto sel, ParseSelect("SELECT a, b AS bee FROM t"));
  ASSERT_EQ(sel->items.size(), 2u);
  EXPECT_EQ(sel->items[0].expr->kind, ExprKind::kColumnRef);
  EXPECT_EQ(sel->items[1].alias, "bee");
  ASSERT_EQ(sel->from.size(), 1u);
  EXPECT_EQ(sel->from[0]->name, "t");
}

TEST(ParserTest, ImplicitAlias) {
  ASSERT_OK_AND_ASSIGN(auto sel, ParseSelect("SELECT E1.age a FROM Employees E1"));
  EXPECT_EQ(sel->items[0].alias, "a");
  EXPECT_EQ(sel->from[0]->alias, "E1");
  EXPECT_EQ(sel->from[0]->BindingName(), "E1");
}

TEST(ParserTest, OperatorPrecedence) {
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("1 + 2 * 3"));
  EXPECT_EQ(PrintExpr(*e), "1 + 2 * 3");
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("(1 + 2) * 3"));
  EXPECT_EQ(PrintExpr(*e), "(1 + 2) * 3");
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("a OR b AND NOT c = d"));
  EXPECT_EQ(e->op, "OR");
}

TEST(ParserTest, ComparisonChainsReject) {
  // a = b = c parses left-assoc (a = b) = c — a bool compared with c; the
  // parser accepts, the binder rejects later. Just check the shape.
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("a = b"));
  EXPECT_EQ(e->op, "=");
}

TEST(ParserTest, InListAndSubquery) {
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("x IN (1, 2, 3)"));
  EXPECT_EQ(e->kind, ExprKind::kInList);
  EXPECT_EQ(e->args.size(), 4u);
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("x NOT IN (SELECT y FROM t)"));
  EXPECT_EQ(e->kind, ExprKind::kInSubquery);
  EXPECT_TRUE(e->negated);
  ASSERT_NE(e->subquery, nullptr);
}

TEST(ParserTest, TupleIn) {
  ASSERT_OK_AND_ASSIGN(auto e,
                       ParseExpression("(a, b) IN (SELECT x, y FROM t)"));
  EXPECT_EQ(e->kind, ExprKind::kInSubquery);
  EXPECT_EQ(e->args.size(), 2u);
}

TEST(ParserTest, ExistsAndNotExists) {
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("EXISTS (SELECT * FROM t)"));
  EXPECT_EQ(e->kind, ExprKind::kExists);
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("NOT EXISTS (SELECT * FROM t)"));
  EXPECT_EQ(e->kind, ExprKind::kUnary);
  EXPECT_EQ(e->args[0]->kind, ExprKind::kExists);
}

TEST(ParserTest, BetweenBindsTighterThanAnd) {
  ASSERT_OK_AND_ASSIGN(auto e,
                       ParseExpression("x BETWEEN 1 AND 5 AND y = 2"));
  EXPECT_EQ(e->op, "AND");
  EXPECT_EQ(e->args[0]->kind, ExprKind::kBetween);
}

TEST(ParserTest, DateAndIntervalLiterals) {
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("DATE '1995-03-15'"));
  EXPECT_EQ(e->kind, ExprKind::kLiteral);
  EXPECT_EQ(e->literal.type(), TypeId::kDate);
  ASSERT_OK_AND_ASSIGN(
      e, ParseExpression("DATE '1994-01-01' + INTERVAL '3' MONTH"));
  EXPECT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->args[1]->kind, ExprKind::kInterval);
  EXPECT_EQ(e->args[1]->interval_unit, "MONTH");
}

TEST(ParserTest, ExtractAndSubstring) {
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("EXTRACT(YEAR FROM d)"));
  EXPECT_EQ(e->kind, ExprKind::kExtract);
  EXPECT_EQ(e->extract_field, "YEAR");
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("SUBSTRING(s FROM 1 FOR 2)"));
  EXPECT_EQ(e->kind, ExprKind::kFunction);
  EXPECT_EQ(e->args.size(), 3u);
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("SUBSTRING(s, 1, 2)"));
  EXPECT_EQ(e->args.size(), 3u);
}

TEST(ParserTest, CaseForms) {
  ASSERT_OK_AND_ASSIGN(
      auto e, ParseExpression("CASE WHEN a = 1 THEN 'x' ELSE 'y' END"));
  EXPECT_EQ(e->kind, ExprKind::kCase);
  EXPECT_EQ(e->args.size(), 2u);
  ASSERT_NE(e->else_expr, nullptr);
  ASSERT_OK_AND_ASSIGN(e,
                       ParseExpression("CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END"));
  ASSERT_NE(e->case_operand, nullptr);
  EXPECT_EQ(e->args.size(), 4u);
}

TEST(ParserTest, AggregatesWithDistinctAndStar) {
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpression("COUNT(*)"));
  EXPECT_EQ(e->args[0]->kind, ExprKind::kStar);
  ASSERT_OK_AND_ASSIGN(e, ParseExpression("COUNT(DISTINCT x)"));
  EXPECT_TRUE(e->distinct);
}

TEST(ParserTest, GroupHavingOrderLimit) {
  ASSERT_OK_AND_ASSIGN(
      auto sel,
      ParseSelect("SELECT a, COUNT(*) c FROM t GROUP BY a HAVING COUNT(*) > 2 "
                  "ORDER BY c DESC, a LIMIT 10"));
  EXPECT_EQ(sel->group_by.size(), 1u);
  ASSERT_NE(sel->having, nullptr);
  ASSERT_EQ(sel->order_by.size(), 2u);
  EXPECT_TRUE(sel->order_by[0].desc);
  EXPECT_FALSE(sel->order_by[1].desc);
  EXPECT_EQ(sel->limit, 10);
  EXPECT_EQ(sel->offset, 0);
}

TEST(ParserTest, LimitOffset) {
  ASSERT_OK_AND_ASSIGN(auto sel,
                       ParseSelect("SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 20"));
  EXPECT_EQ(sel->limit, 5);
  EXPECT_EQ(sel->offset, 20);
  // OFFSET survives Clone (views and the MT rewriter clone statements).
  auto clone = sel->Clone();
  EXPECT_EQ(clone->limit, 5);
  EXPECT_EQ(clone->offset, 20);
  // OFFSET requires a preceding LIMIT and an integer count.
  EXPECT_FALSE(ParseSelect("SELECT a FROM t OFFSET 3").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT 5 OFFSET x").ok());
}

TEST(ParserTest, IntegerOverflowIsSyntaxErrorNotCrash) {
  // Out-of-int64-range literals must produce a Status, not throw out of
  // std::stoll and terminate the process.
  const char* big = "99999999999999999999";
  EXPECT_FALSE(
      ParseSelect("SELECT a FROM t LIMIT " + std::string(big)).ok());
  EXPECT_FALSE(
      ParseSelect("SELECT a FROM t LIMIT 1 OFFSET " + std::string(big)).ok());
  EXPECT_FALSE(ParseSelect("SELECT " + std::string(big)).ok());
  EXPECT_FALSE(ParseExpression("x + " + std::string(big)).ok());
}

TEST(ParserTest, Joins) {
  ASSERT_OK_AND_ASSIGN(
      auto sel,
      ParseSelect("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y AND b.z > 1"));
  ASSERT_EQ(sel->from.size(), 1u);
  EXPECT_EQ(sel->from[0]->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(sel->from[0]->join_type, JoinType::kLeft);
  ASSERT_NE(sel->from[0]->join_cond, nullptr);
}

TEST(ParserTest, DerivedTable) {
  ASSERT_OK_AND_ASSIGN(
      auto sel, ParseSelect("SELECT v FROM (SELECT x AS v FROM t) AS d"));
  EXPECT_EQ(sel->from[0]->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(sel->from[0]->alias, "d");
}

TEST(ParserTest, CreateTableWithMtKeywords) {
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt,
      ParseStatement(
          "CREATE TABLE Employees SPECIFIC ("
          " E_emp_id INTEGER NOT NULL SPECIFIC,"
          " E_name VARCHAR(25) NOT NULL COMPARABLE,"
          " E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @cToU @cFromU,"
          " CONSTRAINT pk_emp PRIMARY KEY (E_emp_id),"
          " CONSTRAINT fk_emp FOREIGN KEY (E_role_id) REFERENCES Roles (R_role_id))"));
  ASSERT_EQ(stmt.kind, Stmt::Kind::kCreateTable);
  const auto& ct = *stmt.create_table;
  EXPECT_TRUE(ct.mt_specific);
  ASSERT_EQ(ct.columns.size(), 3u);
  EXPECT_EQ(ct.columns[0].comparability, Comparability::kTenantSpecific);
  EXPECT_EQ(ct.columns[1].comparability, Comparability::kComparable);
  EXPECT_EQ(ct.columns[2].comparability, Comparability::kConvertible);
  EXPECT_EQ(ct.columns[2].to_universal_fn, "cToU");
  EXPECT_EQ(ct.columns[2].from_universal_fn, "cFromU");
  ASSERT_EQ(ct.constraints.size(), 2u);
  EXPECT_EQ(ct.constraints[1].ref_table, "Roles");
}

TEST(ParserTest, CreateTablePartitionBy) {
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt,
      ParseStatement("CREATE TABLE t (ttid INTEGER NOT NULL, a INTEGER) "
                     "PARTITION BY HASH (ttid) PARTITIONS 8"));
  ASSERT_EQ(stmt.kind, Stmt::Kind::kCreateTable);
  const auto& hash = stmt.create_table->partition;
  EXPECT_EQ(hash.method, PartitionSpec::Method::kHash);
  EXPECT_EQ(hash.column, "ttid");
  EXPECT_EQ(hash.count, 8);
  // The clause survives a print-parse round trip byte-identically.
  std::string printed = PrintStmt(stmt);
  EXPECT_NE(printed.find("PARTITION BY HASH (ttid) PARTITIONS 8"),
            std::string::npos)
      << printed;
  ASSERT_OK_AND_ASSIGN(Stmt again, ParseStatement(printed));
  EXPECT_EQ(PrintStmt(again), printed);

  ASSERT_OK_AND_ASSIGN(
      stmt, ParseStatement("CREATE TABLE u (k INTEGER) "
                           "PARTITION BY LIST (k) "
                           "(VALUES (1, 2), VALUES (-3))"));
  const auto& list = stmt.create_table->partition;
  EXPECT_EQ(list.method, PartitionSpec::Method::kList);
  ASSERT_EQ(list.lists.size(), 2u);
  EXPECT_EQ(list.lists[0], (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(list.lists[1], (std::vector<int64_t>{-3}));
  printed = PrintStmt(stmt);
  ASSERT_OK_AND_ASSIGN(again, ParseStatement(printed));
  EXPECT_EQ(PrintStmt(again), printed);

  EXPECT_FALSE(
      ParseStatement("CREATE TABLE t (a INTEGER) "
                     "PARTITION BY HASH (a) PARTITIONS 0").ok());
  EXPECT_FALSE(
      ParseStatement("CREATE TABLE t (a INTEGER) PARTITION BY HASH (a)").ok());
}

TEST(ParserTest, CreateAndDropIndex) {
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt, ParseStatement("CREATE INDEX ix_t ON t (ttid, a)"));
  ASSERT_EQ(stmt.kind, Stmt::Kind::kCreateIndex);
  EXPECT_EQ(stmt.create_index->name, "ix_t");
  EXPECT_EQ(stmt.create_index->table, "t");
  EXPECT_EQ(stmt.create_index->columns,
            (std::vector<std::string>{"ttid", "a"}));
  std::string printed = PrintStmt(stmt);
  ASSERT_OK_AND_ASSIGN(Stmt again, ParseStatement(printed));
  EXPECT_EQ(PrintStmt(again), printed);

  ASSERT_OK_AND_ASSIGN(stmt, ParseStatement("DROP INDEX ix_t"));
  ASSERT_EQ(stmt.kind, Stmt::Kind::kDrop);
  EXPECT_EQ(stmt.drop->what, DropStmt::What::kIndex);
  EXPECT_EQ(stmt.drop->name, "ix_t");
  EXPECT_NE(PrintStmt(stmt).find("DROP INDEX ix_t"), std::string::npos);

  EXPECT_FALSE(ParseStatement("CREATE INDEX ON t (a)").ok());
  EXPECT_FALSE(ParseStatement("CREATE INDEX ix ON t ()").ok());
}

TEST(ParserTest, CreateFunction) {
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt,
      ParseStatement("CREATE FUNCTION f (DECIMAL(15,2), INTEGER) RETURNS "
                     "DECIMAL(15,2) AS 'SELECT $1' LANGUAGE SQL IMMUTABLE"));
  ASSERT_EQ(stmt.kind, Stmt::Kind::kCreateFunction);
  EXPECT_EQ(stmt.create_function->arg_types.size(), 2u);
  EXPECT_EQ(stmt.create_function->volatility, Volatility::kImmutable);
  EXPECT_EQ(stmt.create_function->body_sql, "SELECT $1");
}

TEST(ParserTest, CreateFunctionVolatilityClasses) {
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt,
      ParseStatement("CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS "
                     "'SELECT $1' LANGUAGE SQL STABLE"));
  EXPECT_EQ(stmt.create_function->volatility, Volatility::kStable);
  ASSERT_OK_AND_ASSIGN(
      stmt, ParseStatement("CREATE FUNCTION g (INTEGER) RETURNS INTEGER AS "
                           "'SELECT $1' LANGUAGE SQL VOLATILE"));
  EXPECT_EQ(stmt.create_function->volatility, Volatility::kVolatile);
  // No keyword: volatile, the conservative default.
  ASSERT_OK_AND_ASSIGN(
      stmt, ParseStatement("CREATE FUNCTION h (INTEGER) RETURNS INTEGER AS "
                           "'SELECT $1' LANGUAGE SQL"));
  EXPECT_EQ(stmt.create_function->volatility, Volatility::kVolatile);
}

TEST(ParserTest, InsertVariants) {
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt, ParseStatement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"));
  EXPECT_EQ(stmt.insert->rows.size(), 2u);
  ASSERT_OK_AND_ASSIGN(stmt,
                       ParseStatement("INSERT INTO t SELECT a, b FROM s"));
  ASSERT_NE(stmt.insert->select, nullptr);
}

TEST(ParserTest, UpdateDelete) {
  ASSERT_OK_AND_ASSIGN(Stmt stmt,
                       ParseStatement("UPDATE t SET a = a + 1 WHERE b < 3"));
  EXPECT_EQ(stmt.update->assignments.size(), 1u);
  ASSERT_OK_AND_ASSIGN(stmt, ParseStatement("DELETE FROM t WHERE a = 1"));
  ASSERT_NE(stmt.del->where, nullptr);
}

TEST(ParserTest, GrantRevokeSetScope) {
  ASSERT_OK_AND_ASSIGN(Stmt stmt,
                       ParseStatement("GRANT READ ON Employees TO 42"));
  EXPECT_EQ(stmt.grant->grantee, 42);
  EXPECT_FALSE(stmt.grant->revoke);
  ASSERT_OK_AND_ASSIGN(stmt, ParseStatement("GRANT READ, INSERT ON DATABASE TO ALL"));
  EXPECT_TRUE(stmt.grant->to_all);
  EXPECT_TRUE(stmt.grant->on_database);
  ASSERT_OK_AND_ASSIGN(stmt, ParseStatement("REVOKE READ ON Employees FROM 42"));
  EXPECT_TRUE(stmt.grant->revoke);
  ASSERT_OK_AND_ASSIGN(stmt, ParseStatement("SET SCOPE = \"IN (1,3)\""));
  EXPECT_EQ(stmt.set_scope->scope_text, "IN (1,3)");
}

TEST(ParserTest, Script) {
  ASSERT_OK_AND_ASSIGN(auto stmts,
                       ParseScript("SELECT 1; SELECT 2; -- comment\n"));
  EXPECT_EQ(stmts.size(), 2u);
}

TEST(ParserTest, TrailingInputRejected) {
  EXPECT_FALSE(ParseStatement("SELECT 1 SELECT 2").ok());
}

TEST(ParserTest, ParameterPlaceholders) {
  // '?' auto-numbers left to right; '$n' is explicit.
  ASSERT_OK_AND_ASSIGN(
      Stmt stmt, ParseStatement("SELECT a FROM t WHERE a = ? AND b = ?"));
  EXPECT_EQ(MaxParamIndex(stmt), 2);
  ASSERT_OK_AND_ASSIGN(
      stmt, ParseStatement("SELECT a FROM t WHERE a = $2 AND b = $1"));
  EXPECT_EQ(MaxParamIndex(stmt), 2);
  // Numbering restarts per statement in a script.
  ASSERT_OK_AND_ASSIGN(auto stmts,
                       ParseScript("SELECT ?; SELECT ? + ?"));
  ASSERT_EQ(stmts.size(), 2u);
  EXPECT_EQ(MaxParamIndex(stmts[0]), 1);
  EXPECT_EQ(MaxParamIndex(stmts[1]), 2);
  // Placeholders print as $n (the canonical form the engine re-parses).
  ASSERT_OK_AND_ASSIGN(stmt, ParseStatement("SELECT a FROM t WHERE a = ?"));
  EXPECT_NE(PrintStmt(stmt).find("$1"), std::string::npos);
}

TEST(ParserTest, BadParameterPlaceholdersRejected) {
  // Mixing the two numbering schemes would silently alias slots.
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a = $1 AND b = ?").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a = ? AND b = $1").ok());
  // Parameters are 1-based and bounded; $0 and absurd indices are errors,
  // not crashes.
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a = $0").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t WHERE a = $99999999999999").ok());
}

// Print -> parse -> print must be a fixpoint for a spread of queries: the
// middleware relies on this (it sends printed SQL to the engine).
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintFixpoint) {
  ASSERT_OK_AND_ASSIGN(Stmt stmt, ParseStatement(GetParam()));
  std::string once = PrintStmt(stmt);
  ASSERT_OK_AND_ASSIGN(Stmt again, ParseStatement(once));
  EXPECT_EQ(PrintStmt(again), once) << "input: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "SELECT 1",
        "SELECT DISTINCT a, b + 1 AS c FROM t WHERE x = 'it''s' ORDER BY c DESC LIMIT 5",
        "SELECT * FROM a, b WHERE a.x = b.y AND (a.z > 1 OR b.w < 2)",
        "SELECT COUNT(*), SUM(x * (1 - y)) FROM t GROUP BY k HAVING COUNT(*) > 1",
        "SELECT CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 0 END FROM t",
        "SELECT x FROM t WHERE d BETWEEN DATE '1994-01-01' AND DATE '1994-01-01' + INTERVAL '1' YEAR",
        "SELECT x FROM t WHERE EXISTS (SELECT * FROM u WHERE u.a = t.a)",
        "SELECT x FROM t WHERE (a, b) IN (SELECT c, d FROM u)",
        "SELECT x FROM t WHERE y IS NOT NULL AND z NOT LIKE '%x%'",
        "SELECT EXTRACT(YEAR FROM d), SUBSTRING(s, 1, 2) FROM t",
        "SELECT v FROM (SELECT x AS v FROM t) AS d WHERE v <> 3",
        "SELECT * FROM a LEFT JOIN b ON a.x = b.y",
        "SELECT -x, NOT a, x / y * z FROM t",
        "INSERT INTO t (a, b) VALUES (1, 'x')",
        "UPDATE t SET a = a + 1 WHERE b IN (1, 2)",
        "DELETE FROM t WHERE a = 1",
        "CREATE VIEW v AS SELECT a FROM t",
        "CREATE TABLE g (a INTEGER NOT NULL, CONSTRAINT pk PRIMARY KEY (a))",
        "GRANT READ ON Employees TO 42",
        "SET SCOPE = \"FROM Employees WHERE E_salary > 180000\""));

// Nesting is bounded: every later pass (printer, rewriter, binder,
// evaluator) recurses over the parsed tree, so input past kMaxNestingDepth
// must come back as a clean status instead of overflowing the stack of the
// process every tenant shares.
std::string Parens(int depth) {
  return std::string(static_cast<size_t>(depth), '(') + "1" +
         std::string(static_cast<size_t>(depth), ')');
}

std::string Sum(int links) {
  std::string s = "1";
  for (int i = 0; i < links; ++i) s += " + 1";
  return s;
}

void ExpectTooDeep(const std::string& sql) {
  auto r = ParseSelect(sql);
  ASSERT_FALSE(r.ok()) << sql.substr(0, 80);
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
  EXPECT_NE(r.status().message().find("expression nested too deeply"),
            std::string::npos)
      << r.status().ToString();
}

TEST(ParserTest, NestingAtTheLimitParses) {
  ASSERT_OK(ParseSelect("SELECT " + Parens(kMaxNestingDepth)).status());
  ASSERT_OK(ParseSelect("SELECT " + Sum(kMaxNestingDepth)).status());
}

TEST(ParserTest, NestingPastTheLimitIsSyntaxError) {
  ExpectTooDeep("SELECT " + Parens(kMaxNestingDepth + 1));
  ExpectTooDeep("SELECT " + Sum(kMaxNestingDepth + 1));
  ExpectTooDeep("SELECT " + Parens(100000));
  ExpectTooDeep("SELECT " + Sum(100000));
}

TEST(ParserTest, NestingCountsEveryRecursiveForm) {
  const int n = kMaxNestingDepth + 1;
  auto repeat = [n](const std::string& open, const std::string& mid,
                    const std::string& close) {
    std::string s;
    for (int i = 0; i < n; ++i) s += open;
    s += mid;
    for (int i = 0; i < n; ++i) s += close;
    return s;
  };
  ExpectTooDeep("SELECT " + repeat("NOT ", "TRUE", ""));
  ExpectTooDeep("SELECT " + repeat("- ", "1", ""));
  ExpectTooDeep("SELECT " + repeat("f(", "1", ")"));
  ExpectTooDeep("SELECT " + repeat("CASE WHEN TRUE THEN ", "1", " END"));
  ExpectTooDeep("SELECT " + repeat("1 IN (", "1", ")"));
  ExpectTooDeep("SELECT " + repeat("(SELECT ", "1", ")"));
  ExpectTooDeep("SELECT 1 FROM " + repeat("(SELECT 1 FROM ", "t", ") AS s"));
  std::string joins = "SELECT 1 FROM t0";
  for (int i = 1; i <= n; ++i) joins += " JOIN t ON TRUE";
  ExpectTooDeep(joins);
  // Unary plus nests nothing.
  ASSERT_OK(ParseSelect("SELECT " + std::string(100000, '+') + "1").status());
}

TEST(ParserTest, ChainHeightAddsToItsOperands) {
  // A chain wraps its first operand: a 200-link sum as the first operand of
  // a 100-link sum sits 300 deep, though neither chain alone passes the
  // limit. As the last operand it sits one link deep.
  ExpectTooDeep("SELECT (" + Sum(200) + ")" + Sum(100).substr(1));
  ASSERT_OK(ParseSelect("SELECT " + Sum(100) + " + (" + Sum(200) + ")")
                .status());
  // Siblings do not add up: two 200-link operands of one AND are 202 deep.
  ASSERT_OK(
      ParseSelect("SELECT " + Sum(200) + " = 1 AND " + Sum(200) + " = 1")
          .status());
}

}  // namespace
}  // namespace sql
}  // namespace mtbase
