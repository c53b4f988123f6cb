#include "common/decimal.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "tests/test_util.h"

namespace mtbase {
namespace {

TEST(DecimalTest, ParseBasic) {
  ASSERT_OK_AND_ASSIGN(Decimal d, Decimal::Parse("123.45"));
  EXPECT_EQ(d.units(), 12345);
  EXPECT_EQ(d.scale(), 2);
  EXPECT_EQ(d.ToString(), "123.45");
}

TEST(DecimalTest, ParseNegative) {
  ASSERT_OK_AND_ASSIGN(Decimal d, Decimal::Parse("-0.05"));
  EXPECT_EQ(d.units(), -5);
  EXPECT_EQ(d.scale(), 2);
  EXPECT_EQ(d.ToString(), "-0.05");
}

TEST(DecimalTest, ParseInteger) {
  ASSERT_OK_AND_ASSIGN(Decimal d, Decimal::Parse("42"));
  EXPECT_EQ(d.units(), 42);
  EXPECT_EQ(d.scale(), 0);
}

TEST(DecimalTest, ParseTrimsTrailingZeros) {
  ASSERT_OK_AND_ASSIGN(Decimal d, Decimal::Parse("1.500"));
  EXPECT_EQ(d.units(), 15);
  EXPECT_EQ(d.scale(), 1);
}

TEST(DecimalTest, ParseErrors) {
  EXPECT_FALSE(Decimal::Parse("").ok());
  EXPECT_FALSE(Decimal::Parse("abc").ok());
  EXPECT_FALSE(Decimal::Parse("1.2.3").ok());
  EXPECT_FALSE(Decimal::Parse("0.12345678901").ok());  // too many digits
}

TEST(DecimalTest, AddDifferentScales) {
  Decimal a(150, 2);   // 1.50
  Decimal b(25, 1);    // 2.5
  EXPECT_EQ(a.Add(b)->ToString(), "4.00");
  EXPECT_EQ(b.Add(a)->ToString(), "4.00");
}

TEST(DecimalTest, SubGoesNegative) {
  Decimal a(100, 2);
  Decimal b(300, 2);
  EXPECT_EQ(a.Sub(b)->ToString(), "-2.00");
}

TEST(DecimalTest, MulKeepsExactScaleWithinLimit) {
  Decimal a(12345, 2);  // 123.45
  Decimal b(8, 0);      // 8
  EXPECT_EQ(a.Mul(b)->ToString(), "987.60");
}

TEST(DecimalTest, MulRoundsBeyondMaxScale) {
  Decimal a(1, 4);  // 0.0001
  Decimal b(15, 4); // 0.0015 -> product 1.5e-7 rounds to 0.000000
  Decimal p = *a.Mul(b);
  EXPECT_EQ(p.scale(), Decimal::kMaxScale);
  EXPECT_EQ(p.units(), 0);
}

TEST(DecimalTest, DivComputesAtMaxScale) {
  Decimal a(1, 0);
  Decimal b(3, 0);
  EXPECT_EQ(a.Div(b)->ToString(), "0.333333");
  EXPECT_EQ(a.Neg()->Div(b)->ToString(), "-0.333333");
}

TEST(DecimalTest, DivRoundsHalfAwayFromZero) {
  Decimal a(1, 0);
  Decimal b(2, 0);
  EXPECT_EQ(a.Div(b)->ToString(), "0.500000");
  Decimal c(5, 6);  // 0.000005
  EXPECT_EQ(c.Div(Decimal(10, 0))->units(), 1);  // 5e-7 rounds to 1e-6
}

// A result whose units leave int64_t is an error, never a wrapped value:
// 50000000000000000.01 (a DECIMAL(20,2) value) doubled, negated doubled,
// multiplied by 2, divided by 1 at kMaxScale, rescaled for an add, and the
// negation of the smallest mantissa.
TEST(DecimalTest, OutOfRangeResultsAreErrors) {
  const Decimal big(5000000000000000001, 2);
  const Result<Decimal> results[] = {
      big.Add(big),
      big.Sub(*big.Neg()),
      big.Neg()->Sub(big),
      big.Mul(Decimal::FromInt(2)),
      big.Div(Decimal::FromInt(1)),
      Decimal(INT64_MAX, 0).Add(Decimal(1, 2)),  // overflows on rescaling
      Decimal(0, 0).Sub(Decimal(INT64_MIN, 0)),
      Decimal(INT64_MIN, 2).Neg(),
  };
  for (const Result<Decimal>& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "decimal out of range");
  }
}

TEST(DecimalTest, ResultsAtTheRangeLimitsStayExact) {
  EXPECT_EQ(Decimal(INT64_MAX - 1, 2).Add(Decimal(1, 2))->units(), INT64_MAX);
  EXPECT_EQ(Decimal(INT64_MIN + 1, 2).Sub(Decimal(1, 2))->units(), INT64_MIN);
  // The 128-bit product leaves int64_t, the product rounded to kMaxScale
  // does not.
  const Decimal p = *Decimal(INT64_MAX, 6).Mul(Decimal(10, 1));
  EXPECT_EQ(p.units(), INT64_MAX);
  EXPECT_EQ(p.scale(), Decimal::kMaxScale);
  const Decimal big(5000000000000000001, 2);
  EXPECT_EQ(big.Add(*big.Neg())->units(), 0);
  EXPECT_EQ(big.Div(Decimal::FromInt(100000))->ToString(),
            "500000000000.000000");
}

TEST(DecimalTest, CompareAcrossScales) {
  Decimal a(150, 2);  // 1.50
  Decimal b(15, 1);   // 1.5
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(Decimal(151, 2).Compare(b), 1);
  EXPECT_EQ(Decimal(149, 2).Compare(b), -1);
}

TEST(DecimalTest, HashConsistentWithEquality) {
  Decimal a(150, 2);
  Decimal b(15, 1);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(DecimalTest, Rescale) {
  Decimal a(12345, 2);
  EXPECT_EQ(a.Rescale(4).units(), 1234500);
  EXPECT_EQ(a.Rescale(1).units(), 1235);  // rounds .45 up
  EXPECT_EQ(a.Rescale(0).units(), 123);
}

TEST(DecimalTest, FromDouble) {
  EXPECT_EQ(Decimal::FromDouble(1.005, 2).units(), 100 /* binary repr */ + 0);
  EXPECT_EQ(Decimal::FromDouble(2.5, 1).units(), 25);
}

// Conversion round trips with reciprocal-exact rates must be bit-exact
// (the MT-H currency design, DESIGN.md section 5).
struct RatePair {
  const char* to;
  const char* from;
};

class DecimalRoundTripTest : public ::testing::TestWithParam<RatePair> {};

TEST_P(DecimalRoundTripTest, ToFromUniversalIsExact) {
  ASSERT_OK_AND_ASSIGN(Decimal to, Decimal::Parse(GetParam().to));
  ASSERT_OK_AND_ASSIGN(Decimal from, Decimal::Parse(GetParam().from));
  // to * from == 1 exactly.
  EXPECT_EQ(to.Mul(from)->Compare(Decimal::FromInt(1)), 0);
  for (int64_t cents : {1, 99, 100, 12345, 999999, -5000, 987654321}) {
    Decimal universal(cents, 2);
    Decimal stored = *universal.Mul(from);
    Decimal back = *stored.Mul(to);
    EXPECT_EQ(back.Compare(universal), 0)
        << universal.ToString() << " via " << stored.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, DecimalRoundTripTest,
                         ::testing::Values(RatePair{"1", "1"},
                                           RatePair{"0.5", "2"},
                                           RatePair{"0.25", "4"},
                                           RatePair{"0.2", "5"},
                                           RatePair{"0.125", "8"},
                                           RatePair{"0.1", "10"},
                                           RatePair{"0.04", "25"},
                                           RatePair{"0.02", "50"}));

// Multiplicative conversions are fully-SUM-preserving: summing then
// converting equals converting then summing (paper section 2.2.2).
TEST(DecimalTest, MultiplicativeConversionIsSumPreserving) {
  ASSERT_OK_AND_ASSIGN(Decimal to, Decimal::Parse("0.125"));
  Decimal sum_raw(0, 2), sum_conv(0, 2);
  int64_t cents = 17;
  for (int i = 0; i < 100; ++i) {
    Decimal v(cents, 2);
    sum_raw = *sum_raw.Add(v);
    sum_conv = *sum_conv.Add(*v.Mul(to));
    cents = (cents * 31 + 7) % 1000000;
  }
  EXPECT_EQ(sum_raw.Mul(to)->Compare(sum_conv), 0);
}

}  // namespace
}  // namespace mtbase
