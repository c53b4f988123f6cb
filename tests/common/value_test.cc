#include "common/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

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

// The representation: a 1-byte tag next to a 32-byte union of the scalar
// payloads and std::string. Vectors of values relocate by moving, so the
// move constructor must not throw.
static_assert(sizeof(Value) == 40, "Value is a tag plus a 32-byte union");
static_assert(std::is_nothrow_move_constructible<Value>::value,
              "Value moves without throwing");
static_assert(std::is_nothrow_move_assignable<Value>::value,
              "Value move-assigns without throwing");

/// A string longer than any small-string buffer, so copies allocate.
const std::string kLong(64, 'x');

/// One value of every type, strings short and long.
std::vector<Value> Samples() {
  return {Value::Null(),         Value::Bool(true),
          Value::Int(-42),       Value::Double(2.5),
          Value::Dec(Decimal(150, 2)), Value::Str("ab"),
          Value::Str(kLong),     Value::Dat(Date(9000))};
}

/// Same type and same rendering: what a copy must preserve.
void ExpectSame(const Value& got, const Value& want) {
  EXPECT_EQ(got.type(), want.type());
  EXPECT_EQ(got.ToString(), want.ToString());
}

TEST(ValueTest, CopyAndMoveAcrossEveryTypeTransition) {
  const std::vector<Value> samples = Samples();
  for (const Value& from : samples) {
    SCOPED_TRACE(from.ToString());
    Value copied(from);
    ExpectSame(copied, from);
    Value moved(std::move(copied));
    ExpectSame(moved, from);
    for (const Value& to : samples) {
      SCOPED_TRACE(to.ToString());
      // string <-> scalar both ways, string -> string, scalar -> scalar.
      Value assigned = to;
      assigned = from;
      ExpectSame(assigned, from);
      Value move_assigned = to;
      Value source = from;
      move_assigned = std::move(source);
      ExpectSame(move_assigned, from);
    }
  }
}

TEST(ValueTest, SelfAssignmentKeepsTheValue) {
  for (const Value& v : Samples()) {
    Value a = v;
    Value& alias = a;
    a = alias;
    ExpectSame(a, v);
    a = std::move(alias);
    EXPECT_EQ(a.type(), v.type());
    if (v.type() != TypeId::kString) ExpectSame(a, v);
  }
}

TEST(ValueTest, MovedFromValueStaysUsable) {
  for (const Value& v : Samples()) {
    Value source = v;
    Value sink(std::move(source));
    ExpectSame(sink, v);
    source = Value::Int(7);  // assignable...
    EXPECT_EQ(source.int_value(), 7);
    Value again = v;
    Value other(std::move(again));
    again = Value::Str(kLong);
    EXPECT_EQ(again.string_value(), kLong);
    Value moved_twice = std::move(other);
    ExpectSame(moved_twice, v);
  }  // ...and destructible, in every state above.
}

TEST(ValueTest, WrongTypeAccessorThrows) {
  EXPECT_THROW(Value::Int(1).string_value(), std::bad_variant_access);
  EXPECT_THROW(Value::Str("1").int_value(), std::bad_variant_access);
  EXPECT_THROW(Value::Null().bool_value(), std::bad_variant_access);
  EXPECT_THROW(Value::Dec(Decimal(1, 0)).int_value(), std::bad_variant_access);
  EXPECT_THROW(Value::Int(1).decimal_value(), std::bad_variant_access);
  EXPECT_THROW(Value::Dat(Date(1)).double_value(), std::bad_variant_access);
  EXPECT_THROW(Value::Double(1).date_value(), std::bad_variant_access);
  EXPECT_EQ(Value::Int(1).int_value(), 1);
}

/// The general path's answer for two INT/DECIMAL values: both widened to
/// Decimal.
int Widened(const Value& a, const Value& b) {
  auto dec = [](const Value& v) {
    return v.type() == TypeId::kDecimal ? v.decimal_value()
                                        : Decimal::FromInt(v.int_value());
  };
  return dec(a).Compare(dec(b));
}

TEST(ValueTest, CompareFastPathsAgreeWithTheWidenedPath) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  const std::vector<std::pair<Value, Value>> pairs = {
      {Value::Int(lo), Value::Int(hi)},
      {Value::Int(hi), Value::Int(lo)},
      {Value::Int(lo), Value::Int(lo)},
      {Value::Int(hi), Value::Int(hi - 1)},
      {Value::Int(-1), Value::Int(0)},
      // 1.50 vs 1.5 widens; equal scales compare units.
      {Value::Dec(Decimal(150, 2)), Value::Dec(Decimal(15, 1))},
      {Value::Dec(Decimal(150, 2)), Value::Dec(Decimal(149, 2))},
      {Value::Dec(Decimal(-150, 2)), Value::Dec(Decimal(149, 2))},
      {Value::Dec(Decimal(hi, 2)), Value::Dec(Decimal(lo, 2))},
      {Value::Dec(Decimal(1, 6)), Value::Dec(Decimal(1, 0))},
      {Value::Int(5), Value::Dec(Decimal(500, 2))},
  };
  for (const auto& [a, b] : pairs) {
    SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
    ASSERT_OK_AND_ASSIGN(int ab, a.Compare(b));
    ASSERT_OK_AND_ASSIGN(int ba, b.Compare(a));
    EXPECT_EQ(ab, Widened(a, b));
    EXPECT_EQ(ba, Widened(b, a));
    EXPECT_EQ(a.StructuralEquals(b), ab == 0);
  }
  // DATE compares by day number.
  for (const auto& [x, y] : std::vector<std::pair<int32_t, int32_t>>{
           {-5, 3}, {3, -5}, {7, 7}, {INT32_MIN, INT32_MAX}}) {
    ASSERT_OK_AND_ASSIGN(int c,
                         Value::Dat(Date(x)).Compare(Value::Dat(Date(y))));
    EXPECT_EQ(c, x < y ? -1 : (x > y ? 1 : 0)) << x << " vs " << y;
  }
}

}  // namespace
}  // namespace mtbase
