// Expression evaluation corner cases, exercised through SQL.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/planner.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  Value Scalar(const std::string& expr) {
    auto r = db_.Execute("SELECT " + expr);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << expr;
    if (!r.ok() || r.value().rows.empty()) return Value::Null();
    return r.value().rows[0][0];
  }

  Database db_;
};

TEST_F(EvalTest, IntegerArithmeticStaysIntegral) {
  EXPECT_EQ(Scalar("2 + 3 * 4").type(), TypeId::kInt);
  EXPECT_EQ(Scalar("2 + 3 * 4").int_value(), 14);
  EXPECT_EQ(Scalar("10 - 20").int_value(), -10);
}

TEST_F(EvalTest, DivisionIsExactDecimal) {
  // Integer division produces a decimal (PostgreSQL numeric semantics).
  EXPECT_EQ(Scalar("7 / 2").type(), TypeId::kDecimal);
  EXPECT_DOUBLE_EQ(Scalar("7 / 2").AsDouble(), 3.5);
  EXPECT_DOUBLE_EQ(Scalar("1 / 3").AsDouble(), 0.333333);
}

TEST_F(EvalTest, DivisionByZeroIsError) {
  EXPECT_FALSE(db_.Execute("SELECT 1 / 0").ok());
  EXPECT_FALSE(db_.Execute("SELECT 1.5 / 0.0").ok());
}

TEST_F(EvalTest, DecimalPropagation) {
  EXPECT_EQ(Scalar("0.1 + 0.2").decimal_value().ToString(), "0.3");
  EXPECT_EQ(Scalar("1.5 * 1.5").decimal_value().ToString(), "2.25");
  EXPECT_EQ(Scalar("-1.5").decimal_value().ToString(), "-1.5");
}

TEST_F(EvalTest, UnaryMinusAndNot) {
  EXPECT_EQ(Scalar("-(-5)").int_value(), 5);
  EXPECT_EQ(Scalar("NOT TRUE").bool_value(), false);
  EXPECT_EQ(Scalar("NOT (1 = 2)").bool_value(), true);
  EXPECT_TRUE(Scalar("NOT NULL").is_null());
}

TEST_F(EvalTest, ComparisonChains) {
  EXPECT_TRUE(Scalar("1 < 2").bool_value());
  EXPECT_TRUE(Scalar("'abc' <> 'abd'").bool_value());
  EXPECT_TRUE(Scalar("DATE '1994-01-01' < DATE '1995-01-01'").bool_value());
  EXPECT_TRUE(Scalar("1.5 = 1.50").bool_value());
  EXPECT_TRUE(Scalar("1 = 1.0").bool_value());  // cross numeric types
}

TEST_F(EvalTest, KleeneLogicTruthTable) {
  EXPECT_TRUE(Scalar("NULL OR TRUE").bool_value());
  EXPECT_TRUE(Scalar("NULL OR 1 = 1").bool_value());
  EXPECT_FALSE(Scalar("NULL AND FALSE").bool_value());
  EXPECT_TRUE(Scalar("NULL AND TRUE").is_null());
  EXPECT_TRUE(Scalar("NULL OR FALSE").is_null());
  EXPECT_TRUE(Scalar("NULL AND NULL").is_null());
}

TEST_F(EvalTest, BetweenBoundsInclusive) {
  EXPECT_TRUE(Scalar("5 BETWEEN 5 AND 7").bool_value());
  EXPECT_TRUE(Scalar("7 BETWEEN 5 AND 7").bool_value());
  EXPECT_FALSE(Scalar("4 BETWEEN 5 AND 7").bool_value());
  EXPECT_TRUE(Scalar("4 NOT BETWEEN 5 AND 7").bool_value());
  EXPECT_TRUE(Scalar("NULL BETWEEN 1 AND 2").is_null());
}

TEST_F(EvalTest, InListNullSemantics) {
  EXPECT_TRUE(Scalar("1 IN (1, 2)").bool_value());
  EXPECT_FALSE(Scalar("3 IN (1, 2)").bool_value());
  EXPECT_TRUE(Scalar("3 IN (1, NULL)").is_null());   // unknown
  EXPECT_TRUE(Scalar("1 IN (1, NULL)").bool_value()); // found wins
  EXPECT_TRUE(Scalar("3 NOT IN (1, NULL)").is_null());
}

TEST_F(EvalTest, DateArithmetic) {
  EXPECT_EQ(Scalar("DATE '1998-12-01' - INTERVAL '90' DAY").ToString(),
            "1998-09-02");
  EXPECT_EQ(Scalar("DATE '1993-07-01' + INTERVAL '3' MONTH").ToString(),
            "1993-10-01");
  EXPECT_EQ(Scalar("DATE '1994-01-01' + INTERVAL '1' YEAR").ToString(),
            "1995-01-01");
  EXPECT_EQ(Scalar("DATE '1994-01-05' - DATE '1994-01-01'").int_value(), 4);
  EXPECT_EQ(Scalar("DATE '1994-01-01' + 10").ToString(), "1994-01-11");
}

TEST_F(EvalTest, ExtractFields) {
  EXPECT_EQ(Scalar("EXTRACT(YEAR FROM DATE '1995-03-15')").int_value(), 1995);
  EXPECT_EQ(Scalar("EXTRACT(MONTH FROM DATE '1995-03-15')").int_value(), 3);
  EXPECT_EQ(Scalar("EXTRACT(DAY FROM DATE '1995-03-15')").int_value(), 15);
}

TEST_F(EvalTest, SubstringEdgeCases) {
  EXPECT_EQ(Scalar("SUBSTRING('hello' FROM 1 FOR 2)").string_value(), "he");
  EXPECT_EQ(Scalar("SUBSTRING('hello' FROM 10 FOR 2)").string_value(), "");
  EXPECT_EQ(Scalar("SUBSTRING('hello' FROM 1 FOR 0)").string_value(), "");
  EXPECT_EQ(Scalar("SUBSTRING('hello' FROM 4)").string_value(), "lo");
  EXPECT_TRUE(Scalar("SUBSTRING(NULL FROM 1 FOR 2)").is_null());
  EXPECT_EQ(Scalar("SUBSTRING('hello', -9223372036854775807 - 1)")
                .string_value(),
            "hello");
}

TEST_F(EvalTest, CaseEvaluationOrder) {
  // First matching WHEN wins; missing ELSE yields NULL.
  EXPECT_EQ(Scalar("CASE WHEN TRUE THEN 1 WHEN TRUE THEN 2 END").int_value(),
            1);
  EXPECT_TRUE(Scalar("CASE WHEN FALSE THEN 1 END").is_null());
  EXPECT_EQ(Scalar("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END").string_value(),
            "b");
}

TEST_F(EvalTest, SortOrderWithNulls) {
  ASSERT_OK(db_.ExecuteScript(
      "CREATE TABLE s (v INTEGER); INSERT INTO s VALUES (2), (NULL), (1)"));
  ASSERT_OK_AND_ASSIGN(auto rs, db_.Execute("SELECT v FROM s ORDER BY v"));
  // NULLs sort last ascending.
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);
  EXPECT_TRUE(rs.rows[2][0].is_null());
  ASSERT_OK_AND_ASSIGN(rs, db_.Execute("SELECT v FROM s ORDER BY v DESC"));
  EXPECT_TRUE(rs.rows[0][0].is_null());  // inverted: NULLs first descending
  EXPECT_EQ(rs.rows[1][0].int_value(), 2);
}

TEST_F(EvalTest, StringConcatOperatorAndNumericRendering) {
  EXPECT_EQ(Scalar("'n=' || 42").string_value(), "n=42");
  EXPECT_TRUE(Scalar("'x' || NULL").is_null());
}

TEST_F(EvalTest, TypeErrorsSurfaceAsStatuses) {
  EXPECT_FALSE(db_.Execute("SELECT 'a' + 1").ok());
  EXPECT_FALSE(db_.Execute("SELECT -'a'").ok());
  EXPECT_FALSE(db_.Execute("SELECT 'a' < 1").ok());
  EXPECT_FALSE(db_.Execute("SELECT EXTRACT(YEAR FROM 5)").ok());

  // Ill-typed arguments over a column (one non-NULL row) are InvalidArgument
  // statuses, never an escaping exception.
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE t (a INTEGER, s VARCHAR(10), d DECIMAL(10,2));
    INSERT INTO t VALUES (1, 'abc', 2.50);
  )"));
  for (const char* sql :
       {"SELECT SUBSTRING(s, d) FROM t", "SELECT SUBSTRING(a, 1) FROM t",
        "SELECT s LIKE 5 FROM t", "SELECT a LIKE 'x' FROM t",
        "SELECT CHAR_LENGTH(a) FROM t", "SELECT UPPER(a) FROM t",
        "SELECT LOWER(d) FROM t", "SELECT AVG(s) FROM t",
        "SELECT SUM(s) FROM t", "SELECT d + s FROM t", "SELECT s / 2 FROM t",
        "SELECT UPPER() FROM t"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  ASSERT_OK(db_.ExecuteScript("INSERT INTO t VALUES (2, 'de', 1.00)"));
  auto two = db_.Execute("SELECT SUM(s) FROM t");
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, IntegerOverflowIsAnError) {
  for (const char* expr :
       {"9223372036854775807 + 1", "-9223372036854775807 - 2",
        "4611686018427387904 * 2", "-(-9223372036854775807 - 1)",
        "ABS(-9223372036854775807 - 1)"}) {
    auto r = db_.Execute(std::string("SELECT ") + expr);
    ASSERT_FALSE(r.ok()) << expr;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << expr;
    EXPECT_EQ(r.status().message(), "integer out of range") << expr;
  }
  // The extremes themselves are representable.
  EXPECT_EQ(Scalar("-9223372036854775807 - 1").int_value(), INT64_MIN);
  EXPECT_EQ(Scalar("ABS(-9223372036854775807)").int_value(), INT64_MAX);

  // SUM and AVG accumulate INT exactly, and fail past the range.
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE big (v INTEGER);
    INSERT INTO big VALUES (9223372036854775807), (1);
  )"));
  for (const char* sql : {"SELECT SUM(v) FROM big", "SELECT AVG(v) FROM big"}) {
    auto r = db_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
}

// DECIMAL arithmetic fails where its result leaves the 64-bit mantissa, as
// INT does: 50000000000000000.01 fits a DECIMAL(20,2), twice it does not,
// and -92233720368547758.08 (the smallest mantissa) has no negation.
// Aggregates fail too, folding a scan in place or a derived table's rows,
// serially and from four workers whose partials overflow when merged.
TEST_F(EvalTest, DecimalOverflowIsAnError) {
  auto expect_out_of_range = [](const Result<ResultSet>& r,
                                const std::string& sql) {
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(r.status().message(), "decimal out of range") << sql;
  };
  for (const char* expr :
       {"50000000000000000.01 + 50000000000000000.01",
        "-50000000000000000.01 - 50000000000000000.01",
        "50000000000000000.01 * 2", "50000000000000000.01 / 1",
        "-(-92233720368547758.07 - 0.01)",
        "ABS(-92233720368547758.07 - 0.01)"}) {
    expect_out_of_range(db_.Execute(std::string("SELECT ") + expr), expr);
  }
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE dbig (x DECIMAL(20,2), g INTEGER);
    INSERT INTO dbig VALUES (50000000000000000.01, 1),
                            (50000000000000000.01, 1);
    CREATE TABLE done (x DECIMAL(20,2));
    INSERT INTO done VALUES (50000000000000000.01);
  )"));
  for (int threads : {1, 4}) {
    PlannerOptions opts = db_.planner_options();
    opts.max_threads = threads;
    opts.min_parallel_rows = 2;
    db_.set_planner_options(opts);
    for (const char* sql :
         {"SELECT SUM(x) FROM dbig", "SELECT AVG(x) FROM dbig",
          "SELECT g, SUM(x) FROM dbig GROUP BY g",
          "SELECT SUM(x) FROM (SELECT x FROM dbig) t",
          "SELECT g, AVG(x) FROM (SELECT x, g FROM dbig) t GROUP BY g",
          "SELECT x + x FROM dbig", "SELECT x * 2 FROM dbig",
          "SELECT AVG(x) FROM done"}) {
      expect_out_of_range(db_.Execute(sql),
                          sql + std::string(" at ") + std::to_string(threads));
    }
    // Results inside the range are unchanged.
    ASSERT_OK_AND_ASSIGN(ResultSet sum,
                         db_.Execute("SELECT SUM(x), MAX(x) FROM done"));
    EXPECT_EQ(sum.rows[0][0].ToString(), "50000000000000000.01");
    EXPECT_EQ(sum.rows[0][1].ToString(), "50000000000000000.01");
    ASSERT_OK_AND_ASSIGN(ResultSet diff,
                         db_.Execute("SELECT x - x FROM dbig"));
    EXPECT_EQ(diff.rows[1][0].ToString(), "0.00");
  }
}

/// One operand value: the ops column that holds it, its type, and the
/// literal that spells it.
struct OperandValue {
  const char* column;
  const char* type;
  const char* literal;
};

const OperandValue kOperandValues[] = {
    {"i0", "INTEGER", "0"},
    {"i3", "INTEGER", "3"},
    {"i5", "INTEGER", "5"},
    {"imax", "INTEGER", "9223372036854775807"},
    {"dx", "DECIMAL(10,2)", "2.25"},
    {"sa", "VARCHAR(10)", "'abc'"},
    {"sp", "VARCHAR(10)", "'a%'"},
    {"dt", "DATE", "DATE '1995-03-15'"},
    {"nl", "INTEGER", "NULL"},
    {"bt", "BOOLEAN", "TRUE"},
};

const OperandValue& FindOperand(const std::string& column) {
  for (const OperandValue& v : kOperandValues) {
    if (column == v.column) return v;
  }
  ADD_FAILURE() << "no operand " << column;
  return kOperandValues[0];
}

/// `pattern` with each {i} replaced by spell(i).
template <typename Spell>
std::string Fill(const std::string& pattern, size_t n, Spell spell) {
  std::string out = pattern;
  for (size_t i = 0; i < n; ++i) {
    const std::string hole = "{" + std::to_string(i) + "}";
    for (size_t at = out.find(hole); at != std::string::npos;
         at = out.find(hole, at)) {
      const std::string with = spell(i);
      out.replace(at, hole.size(), with);
      at += with.size();
    }
  }
  return out;
}

/// "TYPE:value" of a one-row, one-column result, or "Code: message".
template <typename R>
std::string Outcome(const R& r) {
  if (!r.ok()) return r.status().ToString();
  if (r.value().rows.size() != 1 || r.value().rows[0].size() != 1) {
    return "not one value";
  }
  const Value& v = r.value().rows[0][0];
  return std::string(TypeIdName(v.type())) + ":" + v.ToString();
}

/// The expression `text` bound over no columns.
Result<BoundExprPtr> BindOverNothing(Database& db, const std::string& text) {
  MTB_ASSIGN_OR_RETURN(sql::ExprPtr ast, sql::ParseExpression(text));
  return Planner(db.catalog(), db.udfs()).BindExpr(*ast, {});
}

TEST_F(EvalTest, EveryOperandKindGivesTheSameOutcome) {
  // Each operator reads its operands as a literal (folded at plan time), a
  // slot, a UDF body's $n, an outer slot of a correlated sub-query, or a
  // computed expression (COALESCE of the column); every form must give the
  // same value or the same status. As a WHERE over the one ops row, through
  // the scan's compiled filter, the case keeps the row exactly when it is
  // TRUE and fails with the same status.
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE ops (i0 INTEGER, i3 INTEGER, i5 INTEGER, imax INTEGER,
                      dx DECIMAL(10,2), sa VARCHAR(10), sp VARCHAR(10),
                      dt DATE, nl INTEGER, bt BOOLEAN);
    INSERT INTO ops VALUES (0, 3, 5, 9223372036854775807, 2.25, 'abc', 'a%',
                            DATE '1995-03-15', NULL, TRUE);
    CREATE TABLE one (z INTEGER);
    INSERT INTO one VALUES (1);
  )"));
  struct Case {
    const char* pattern;
    std::vector<std::string> operands;
    const char* outcome;
  };
  const Case cases[] = {
      {"{0} = {1}", {"i3", "i5"}, "BOOL:false"},
      {"{0} < {1}", {"i3", "dx"}, "BOOL:false"},
      {"{0} <> {1}", {"sa", "sa"}, "BOOL:false"},
      {"{0} >= {1}", {"dt", "dt"}, "BOOL:true"},
      {"{0} = {1}", {"nl", "i3"}, "NULL:NULL"},
      {"{0} < {1}", {"sa", "i3"}, "Internal: cannot compare STRING with INT"},
      {"{0} + {1}", {"i3", "i5"}, "INT:8"},
      {"{0} + {1}", {"imax", "i3"}, "InvalidArgument: integer out of range"},
      {"{0} + {1}", {"dt", "i5"}, "DATE:1995-03-20"},
      {"{0} - {1}", {"dt", "dt"}, "INT:0"},
      {"{0} * {1}", {"dx", "i5"}, "DECIMAL:11.25"},
      {"{0} / {1}", {"i5", "i0"}, "InvalidArgument: division by zero"},
      {"{0} / {1}", {"i3", "dx"}, "DECIMAL:1.333333"},
      {"{0} + {1}", {"sa", "i3"},
       "InvalidArgument: cannot add non-numeric values"},
      {"{0} || {1}", {"sa", "i3"}, "STRING:abc3"},
      {"{0} || {1}", {"sa", "nl"}, "NULL:NULL"},
      {"{0} LIKE {1}", {"sa", "sp"}, "BOOL:true"},
      {"{0} NOT LIKE {1}", {"sa", "sp"}, "BOOL:false"},
      {"{0} LIKE {1}", {"i3", "sp"},
       "InvalidArgument: LIKE requires string operands"},
      {"{0} BETWEEN {1} AND {2}", {"i3", "i3", "i5"}, "BOOL:true"},
      {"{0} NOT BETWEEN {1} AND {2}", {"dx", "i3", "i5"}, "BOOL:true"},
      {"{0} BETWEEN {1} AND {2}", {"i3", "nl", "i5"}, "NULL:NULL"},
      {"{0} IN ({1}, {2})", {"i3", "nl", "i5"}, "NULL:NULL"},
      {"{0} IN ({1}, {2})", {"i5", "nl", "i5"}, "BOOL:true"},
      {"{0} NOT IN ({1}, {2})", {"i0", "i3", "i5"}, "BOOL:true"},
      {"{0} IS NULL", {"nl"}, "BOOL:true"},
      {"{0} IS NOT NULL", {"sa"}, "BOOL:true"},
      {"NOT {0}", {"bt"}, "BOOL:false"},
      {"NOT {0}", {"nl"}, "NULL:NULL"},
      {"-{0}", {"dx"}, "DECIMAL:-2.25"},
      {"-{0}", {"sa"}, "InvalidArgument: cannot negate non-numeric value"},
      {"{0} AND {1}", {"bt", "nl"}, "NULL:NULL"},
      {"{0} OR {1}", {"bt", "nl"}, "BOOL:true"},
      {"CASE WHEN {0} THEN {1} ELSE {2} END", {"bt", "i3", "i5"}, "INT:3"},
      {"CASE WHEN {0} THEN {1} ELSE {2} END", {"nl", "i3", "i5"}, "INT:5"},
      {"SUBSTRING({0} FROM {1} FOR {2})", {"sa", "i3", "i5"}, "STRING:c"},
      {"UPPER({0})", {"sa"}, "STRING:ABC"},
      {"CHAR_LENGTH({0})", {"sa"}, "INT:3"},
      {"ABS({0})", {"dx"}, "DECIMAL:2.25"},
      {"ABS({0})", {"sa"}, "InvalidArgument: ABS requires a numeric argument"},
      {"EXTRACT(MONTH FROM {0})", {"dt"}, "INT:3"},
      {"{0} + INTERVAL '3' MONTH", {"dt"}, "DATE:1995-06-15"},
      {"COALESCE({0}, {1})", {"nl", "i3"}, "INT:3"},
      {"CONCAT({0}, {1})", {"sa", "nl"}, "STRING:abc"},
  };
  int fn = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pattern);
    const size_t n = c.operands.size();
    auto literal = [&](size_t i) {
      return std::string(FindOperand(c.operands[i]).literal);
    };
    // $n: a UDF whose body applies the operator to its parameters.
    const std::string name = "f" + std::to_string(fn++);
    std::string body = Fill(c.pattern, n, [](size_t i) {
      return "$" + std::to_string(i + 1);
    });
    std::string quoted;
    for (char ch : body) {
      quoted += ch == '\'' ? std::string("''") : std::string(1, ch);
    }
    std::string create = "CREATE FUNCTION " + name + " (";
    std::string call = name + "(";
    for (size_t i = 0; i < n; ++i) {
      create += std::string(i > 0 ? ", " : "") +
                FindOperand(c.operands[i]).type;
      call += (i > 0 ? ", " : "") + literal(i);
    }
    create += ") RETURNS INTEGER AS 'SELECT " + quoted + "' LANGUAGE SQL";
    call += ")";
    ASSERT_OK(db_.Execute(create));

    const std::string forms[] = {
        "SELECT " + Fill(c.pattern, n, literal),
        "SELECT " +
            Fill(c.pattern, n, [&](size_t i) { return c.operands[i]; }) +
            " FROM ops",
        "SELECT " + call,
        "SELECT (SELECT " +
            Fill(c.pattern, n, [&](size_t i) { return "o." + c.operands[i]; }) +
            " FROM one) FROM ops o",
        "SELECT " +
            Fill(c.pattern, n,
                 [&](size_t i) { return "COALESCE(" + c.operands[i] + ")"; }) +
            " FROM ops",
    };
    for (const std::string& sql : forms) {
      EXPECT_EQ(Outcome(db_.Execute(sql)), c.outcome) << sql;
    }

    // The literal form folds to exactly its outcome, unless it fails: then
    // it stays an expression and fails per row.
    const std::string folded = Fill(c.pattern, n, literal);
    auto bound = BindOverNothing(db_, folded);
    ASSERT_OK(bound);
    const BoundExpr& b = *bound.value();
    const bool fails = std::string(c.outcome).find(": ") != std::string::npos;
    if (fails) {
      EXPECT_NE(b.kind, BoundExpr::Kind::kLiteral) << folded;
    } else {
      ASSERT_EQ(b.kind, BoundExpr::Kind::kLiteral) << folded;
      EXPECT_EQ(std::string(TypeIdName(b.literal.type())) + ":" +
                    b.literal.ToString(),
                c.outcome)
          << folded;
    }

    const std::string count = fails ? c.outcome
                              : std::string(c.outcome) == "BOOL:true"
                                  ? "INT:1"
                                  : "INT:0";
    for (const std::string& where :
         {Fill(c.pattern, n, [&](size_t i) { return c.operands[i]; }),
          folded}) {
      const std::string sql = "SELECT COUNT(*) FROM ops WHERE " + where;
      EXPECT_EQ(Outcome(db_.Execute(sql)), count) << sql;
    }
  }
}

TEST_F(EvalTest, ConstantsFoldOnlyWhereEvaluationSucceeds) {
  ASSERT_OK(db_.ExecuteScript(R"(
    CREATE TABLE one (z INTEGER);
    INSERT INTO one VALUES (1);
    CREATE TABLE three (z INTEGER);
    INSERT INTO three VALUES (1), (2), (3);
  )"));
  // DATE - INTERVAL folds to one DATE literal.
  ASSERT_OK_AND_ASSIGN(
      BoundExprPtr date,
      BindOverNothing(db_, "DATE '1998-12-01' - INTERVAL '90' DAY"));
  ASSERT_EQ(date->kind, BoundExpr::Kind::kLiteral);
  EXPECT_EQ(date->literal.type(), TypeId::kDate);
  EXPECT_EQ(date->literal.ToString(), "1998-09-02");

  // A failing literal expression stays unfolded: over no row it never
  // fails, over a row it fails exactly as without folding.
  for (const char* expr : {"1 / 0", "9223372036854775807 + 1"}) {
    ASSERT_OK_AND_ASSIGN(BoundExprPtr b, BindOverNothing(db_, expr));
    EXPECT_EQ(b->kind, BoundExpr::Kind::kBinary) << expr;
    ASSERT_OK_AND_ASSIGN(
        ResultSet none,
        db_.Execute(std::string("SELECT ") + expr + " FROM one WHERE z = 2"));
    EXPECT_TRUE(none.rows.empty()) << expr;
    auto r =
        db_.Execute(std::string("SELECT ") + expr + " FROM one WHERE z = 1");
    ASSERT_FALSE(r.ok()) << expr;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << expr;
    EXPECT_EQ(r.status().message(), std::string(expr) == "1 / 0"
                                        ? "division by zero"
                                        : "integer out of range");
  }

  // $n never folds, even beside literals.
  ASSERT_OK_AND_ASSIGN(BoundExprPtr param, BindOverNothing(db_, "$1 + 1"));
  EXPECT_EQ(param->kind, BoundExpr::Kind::kBinary);
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION twice (INTEGER) RETURNS INTEGER AS 'SELECT $1 * 2' "
      "LANGUAGE SQL IMMUTABLE"));
  ASSERT_OK_AND_ASSIGN(ResultSet twice,
                       db_.Execute("SELECT twice(z) FROM three"));
  EXPECT_EQ(CanonRows(twice.rows), CanonRows({{Value::Int(2)},
                                              {Value::Int(4)},
                                              {Value::Int(6)}}));

  // A UDF call with literal arguments never folds: it counts one call per
  // row, a body run (volatile) or a cache hit (immutable, after the first).
  ASSERT_OK(db_.Execute(
      "CREATE FUNCTION bump (INTEGER) RETURNS INTEGER AS 'SELECT $1 + 1' "
      "LANGUAGE SQL VOLATILE"));
  ASSERT_OK_AND_ASSIGN(BoundExprPtr call, BindOverNothing(db_, "bump(1)"));
  EXPECT_EQ(call->kind, BoundExpr::Kind::kUdfCall);
  StatsScope volatile_calls(db_.stats());
  ASSERT_OK_AND_ASSIGN(ResultSet bumped,
                       db_.Execute("SELECT bump(1) FROM three"));
  EXPECT_EQ(bumped.rows.size(), 3u);
  EXPECT_EQ(volatile_calls.Delta().udf_calls, 3u);
  StatsScope immutable_calls(db_.stats());
  ASSERT_OK(db_.Execute("SELECT twice(1) FROM three"));
  const ExecStats d = immutable_calls.Delta();
  EXPECT_EQ(d.udf_calls + d.udf_cache_hits, 3u);
  EXPECT_EQ(d.udf_calls, 1u);
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
