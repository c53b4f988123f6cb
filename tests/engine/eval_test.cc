// Expression evaluation corner cases, exercised through SQL.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "engine/database.h"
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

}  // namespace
}  // namespace engine
}  // namespace mtbase
