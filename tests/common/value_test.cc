#include "common/value.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace mtbase {
namespace {

TEST(ValueTest, NullBasics) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
  EXPECT_TRUE(Value::Null().StructuralEquals(v));
}

TEST(ValueTest, NumericCrossTypeComparison) {
  Value i = Value::Int(5);
  Value d = Value::Dec(Decimal(500, 2));
  ASSERT_OK_AND_ASSIGN(int c, i.Compare(d));
  EXPECT_EQ(c, 0);
  ASSERT_OK_AND_ASSIGN(c, Value::Int(5).Compare(Value::Double(5.5)));
  EXPECT_EQ(c, -1);
}

TEST(ValueTest, CrossTypeEqualNumericsShareHash) {
  Value i = Value::Int(5);
  Value d = Value::Dec(Decimal(500, 2));
  EXPECT_TRUE(i.StructuralEquals(d));
  EXPECT_EQ(i.Hash(), d.Hash());
}

TEST(ValueTest, StringComparison) {
  ASSERT_OK_AND_ASSIGN(int c, Value::Str("abc").Compare(Value::Str("abd")));
  EXPECT_LT(c, 0);
}

TEST(ValueTest, IncompatibleComparisonFails) {
  EXPECT_FALSE(Value::Str("a").Compare(Value::Int(1)).ok());
  EXPECT_FALSE(Value::Null().Compare(Value::Int(1)).ok());
}

TEST(ValueTest, DateComparison) {
  Value a = Value::Dat(Date(10));
  Value b = Value::Dat(Date(20));
  ASSERT_OK_AND_ASSIGN(int c, a.Compare(b));
  EXPECT_EQ(c, -1);
}

TEST(ValueTest, RowHashingDistinguishesRows) {
  Row a{Value::Int(1), Value::Str("x")};
  Row b{Value::Int(1), Value::Str("y")};
  Row c{Value::Int(1), Value::Str("x")};
  EXPECT_NE(HashRow(a), HashRow(b));
  EXPECT_EQ(HashRow(a), HashRow(c));
}

TEST(ValueTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Dec(Decimal(150, 2)).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
}

}  // namespace
}  // namespace mtbase
