// Optimization pass tests (paper section 4, Listings 13-17).
#include "mt/optimizer.h"

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mt {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ConversionPair currency;
    currency.name = "currency";
    currency.to_universal = "cToU";
    currency.from_universal = "cFromU";
    currency.cls = ConversionClass::kMultiplicative;
    currency.inline_spec.kind = InlineSpec::Kind::kMultiplicative;
    currency.inline_spec.tenant_fk = "T_currency_key";
    currency.inline_spec.meta_table = "CurrencyTransform";
    currency.inline_spec.meta_key = "CT_currency_key";
    currency.inline_spec.to_col = "CT_to_universal";
    currency.inline_spec.from_col = "CT_from_universal";
    ASSERT_OK(registry_.Register(currency));
    ConversionPair phone;
    phone.name = "phone";
    phone.to_universal = "pToU";
    phone.from_universal = "pFromU";
    phone.cls = ConversionClass::kEqualityOnly;
    phone.inline_spec.kind = InlineSpec::Kind::kPrefix;
    phone.inline_spec.tenant_fk = "T_phone_prefix_key";
    phone.inline_spec.meta_table = "PhoneTransform";
    phone.inline_spec.meta_key = "PT_phone_prefix_key";
    phone.inline_spec.to_col = "PT_prefix";
    phone.inline_spec.from_col = "PT_prefix";
    ASSERT_OK(registry_.Register(phone));
    ConversionPair linear;
    linear.name = "temperature";
    linear.to_universal = "tToU";
    linear.from_universal = "tFromU";
    linear.cls = ConversionClass::kLinear;
    ASSERT_OK(registry_.Register(linear));
  }

  std::string Optimize(const std::string& query, OptLevel level) {
    auto sel = sql::ParseSelect(query);
    EXPECT_TRUE(sel.ok()) << sel.status().ToString();
    Optimizer opt(&registry_, /*client=*/0);
    EXPECT_OK(opt.Optimize(sel.value().get(), level));
    return sql::PrintSelect(*sel.value());
  }

  ConversionRegistry registry_;
};

// -- o2: conversion push-up ---------------------------------------------------

TEST_F(OptimizerTest, O2ComparesInUniversalFormat) {
  // Paper Listing 14: fromU stripped from both sides of the comparison.
  std::string out = Optimize(
      "SELECT 1 FROM E WHERE cFromU(cToU(E1.sal, E1.ttid), 0) > "
      "cFromU(cToU(E2.sal, E2.ttid), 0)",
      OptLevel::kO2);
  EXPECT_NE(out.find("cToU(E1.sal, E1.ttid) > cToU(E2.sal, E2.ttid)"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O2SameOwnerComparesRaw) {
  std::string out = Optimize(
      "SELECT 1 FROM E WHERE cFromU(cToU(E1.sal, E1.ttid), 0) = "
      "cFromU(cToU(E1.bonus, E1.ttid), 0)",
      OptLevel::kO2);
  EXPECT_NE(out.find("E1.sal = E1.bonus"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O2ConvertsConstantInsteadOfAttribute) {
  // Paper Listing 15: the constant is converted into the row owner's format.
  std::string out = Optimize(
      "SELECT 1 FROM E WHERE cFromU(cToU(sal, E.ttid), 0) > 100000",
      OptLevel::kO2);
  EXPECT_NE(out.find("sal > cFromU(cToU(100000, 0), E.ttid)"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O2EqualityOnlyPairNotUsedForOrderComparison) {
  // Phone conversion is only equality-preserving: '<' must keep the client
  // conversions (Table 2 reasoning).
  std::string out = Optimize(
      "SELECT 1 FROM E WHERE pFromU(pToU(phone, E.ttid), 0) < '13'",
      OptLevel::kO2);
  EXPECT_NE(out.find("pFromU(pToU(phone, E.ttid), 0) < '13'"),
            std::string::npos)
      << out;
  // ... but '=' is fine.
  out = Optimize("SELECT 1 FROM E WHERE pFromU(pToU(phone, E.ttid), 0) = '13'",
                 OptLevel::kO2);
  EXPECT_NE(out.find("phone = pFromU(pToU('13', 0), E.ttid)"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O2HandlesInListAndBetween) {
  std::string out = Optimize(
      "SELECT 1 FROM E WHERE cFromU(cToU(sal, E.ttid), 0) IN (1, 2)",
      OptLevel::kO2);
  EXPECT_NE(out.find("sal IN (cFromU(cToU(1, 0), E.ttid), "
                     "cFromU(cToU(2, 0), E.ttid))"),
            std::string::npos)
      << out;
  out = Optimize(
      "SELECT 1 FROM E WHERE cFromU(cToU(sal, E.ttid), 0) BETWEEN 1 AND 2",
      OptLevel::kO2);
  EXPECT_NE(out.find("sal BETWEEN cFromU(cToU(1, 0), E.ttid) AND "
                     "cFromU(cToU(2, 0), E.ttid)"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O2LeavesNonConstantSidesAlone) {
  std::string out = Optimize(
      "SELECT 1 FROM E WHERE cFromU(cToU(sal, E.ttid), 0) > E.other",
      OptLevel::kO2);
  EXPECT_NE(out.find("cFromU(cToU(sal, E.ttid), 0) > E.other"),
            std::string::npos)
      << out;
}

// -- o3: aggregation distribution ---------------------------------------------

TEST_F(OptimizerTest, O3DistributesSum) {
  // Paper Listing 16.
  std::string out = Optimize(
      "SELECT SUM(cFromU(cToU(sal, E.ttid), 0)) AS sum_sal FROM E",
      OptLevel::kO3);
  // The partials stay in tenant format; the outer query converts each one.
  EXPECT_NE(out.find("SELECT E.ttid AS __t, SUM(sal) AS __a0 FROM E "
                     "GROUP BY E.ttid"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("cFromU(SUM(cToU(__a0, __t)), 0) AS sum_sal"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O3DistributesAvgAsSumAndCount) {
  std::string out = Optimize(
      "SELECT AVG(cFromU(cToU(sal, E.ttid), 0)) FROM E", OptLevel::kO3);
  EXPECT_NE(out.find("SUM(sal) AS __a0, COUNT(sal) AS __a0c"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("cFromU(SUM(cToU(__a0, __t)) / SUM(__a0c), 0)"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O3DistributesProductExpressions) {
  // The Q1/Q6 shape: SUM over converted-attribute products.
  std::string out = Optimize(
      "SELECT SUM(cFromU(cToU(price, L.ttid), 0) * (1 - disc)) FROM L",
      OptLevel::kO3);
  EXPECT_NE(out.find("SUM(price * (1 - disc)) AS __a0"), std::string::npos)
      << out;
  EXPECT_NE(out.find("cFromU(SUM(cToU(__a0, __t)), 0)"), std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O3DistributesCaseWithZeroBranch) {
  // The Q14 shape: CASE ... THEN converted ELSE 0 END.
  std::string out = Optimize(
      "SELECT SUM(CASE WHEN t LIKE 'PROMO%' THEN cFromU(cToU(p, L.ttid), 0) "
      "ELSE 0 END) FROM L",
      OptLevel::kO3);
  EXPECT_NE(out.find("GROUP BY L.ttid"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O3KeepsGroupKeysInBothStages) {
  std::string out = Optimize(
      "SELECT flag, SUM(cFromU(cToU(sal, E.ttid), 0)) FROM E GROUP BY flag "
      "ORDER BY flag",
      OptLevel::kO3);
  EXPECT_NE(out.find("GROUP BY flag, E.ttid"), std::string::npos) << out;
  EXPECT_NE(out.find("GROUP BY __g0"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O3SkipsEqualityOnlyPairs) {
  // Phone conversions do not distribute (paper Table 2).
  std::string before =
      "SELECT MIN(pFromU(pToU(phone, E.ttid), 0)) FROM E";
  std::string out = Optimize(before, OptLevel::kO3);
  EXPECT_EQ(out.find("GROUP BY E.ttid"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O3LinearPairUsesWeightedConstruction) {
  // Appendix B: SUM via per-tenant AVG * COUNT.
  std::string out = Optimize(
      "SELECT SUM(tFromU(tToU(temp, E.ttid), 0)) FROM E", OptLevel::kO3);
  EXPECT_NE(out.find("AVG(temp) AS __a0, COUNT(temp) AS __a0c"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("tFromU(SUM(tToU(__a0, __t) * __a0c), 0)"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O3LinearPairDoesNotDistributeProducts) {
  // fromU(a*x+b) * k != fromU((x*k) scaled): products block linear pairs.
  std::string out = Optimize(
      "SELECT SUM(tFromU(tToU(temp, E.ttid), 0) * 2) FROM E", OptLevel::kO3);
  EXPECT_EQ(out.find("GROUP BY E.ttid"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O3SkipsDistinctAggregates) {
  std::string out = Optimize(
      "SELECT COUNT(DISTINCT cFromU(cToU(sal, E.ttid), 0)) FROM E",
      OptLevel::kO3);
  EXPECT_EQ(out.find("GROUP BY E.ttid"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O3SkipsMixedTtidSources) {
  std::string out = Optimize(
      "SELECT SUM(cFromU(cToU(a, E1.ttid), 0)), SUM(cFromU(cToU(b, E2.ttid), "
      "0)) FROM E1, E2",
      OptLevel::kO3);
  EXPECT_EQ(out.find("__part"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O3CountStarDistributesAsSumOfCounts) {
  std::string out = Optimize(
      "SELECT COUNT(*), SUM(cFromU(cToU(sal, E.ttid), 0)) FROM E",
      OptLevel::kO3);
  EXPECT_NE(out.find("SUM(__a0)"), std::string::npos) << out;
  EXPECT_NE(out.find("COUNT(*)"), std::string::npos) << out;
}

// -- o4: inlining ---------------------------------------------------------------

TEST_F(OptimizerTest, O4InlinesCurrencyAsJoin) {
  // Paper Listing 17.
  std::string out = Optimize(
      "SELECT cFromU(cToU(sal, E.ttid), 0) AS sal FROM E", OptLevel::kInlineOnly);
  EXPECT_NE(out.find("CurrencyTransform"), std::string::npos) << out;
  EXPECT_NE(out.find("T_tenant_key = E.ttid"), std::string::npos) << out;
  EXPECT_NE(out.find("CT_to_universal"), std::string::npos) << out;
  // The client-side conversion becomes an uncorrelated scalar sub-query.
  EXPECT_NE(out.find("SELECT CT_from_universal FROM Tenant"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("cToU("), std::string::npos) << out;
}

TEST_F(OptimizerTest, O4ReusesJoinForSameOwner) {
  std::string out = Optimize(
      "SELECT cToU(a, E.ttid), cToU(b, E.ttid) FROM E", OptLevel::kInlineOnly);
  // One Tenant/CurrencyTransform join pair, not two.
  size_t first = out.find("CurrencyTransform");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.find("CurrencyTransform", first + 1), std::string::npos) << out;
}

TEST_F(OptimizerTest, O4InlinesPhoneAsStringOps) {
  std::string out = Optimize(
      "SELECT pToU(phone, E.ttid) FROM E", OptLevel::kInlineOnly);
  EXPECT_NE(out.find("SUBSTRING(phone, CHAR_LENGTH("), std::string::npos)
      << out;
  std::string out2 = Optimize(
      "SELECT pFromU(phone, E.ttid) FROM E", OptLevel::kInlineOnly);
  EXPECT_NE(out2.find("CONCAT("), std::string::npos) << out2;
}

TEST_F(OptimizerTest, O4AfterO3JoinsMetaOverPartials) {
  std::string out = Optimize(
      "SELECT SUM(cFromU(cToU(sal, E.ttid), 0)) FROM E", OptLevel::kO4);
  // The partial aggregation reads no meta table; the outer query joins the
  // tenant's rate once per partial.
  EXPECT_NE(out.find("(SELECT E.ttid AS __t, SUM(sal) AS __a0 FROM E "
                     "GROUP BY E.ttid) AS __part, Tenant __it0, "
                     "CurrencyTransform __im0"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("SUM(__a0 * __im0.CT_to_universal)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("__it0.T_tenant_key = __t"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O4GroupsMetaColumnOfConversionOverAggregate) {
  // A statement that converts an aggregate itself reads the joined meta
  // column outside any aggregate; the column depends on the grouped owner
  // and joins the GROUP BY list.
  const std::string q =
      "SELECT k, cToU(SUM(cFromU(cToU(sal, E.ttid), 0)), k) AS s FROM E "
      "GROUP BY k";
  std::string out = Optimize(q, OptLevel::kInlineOnly);
  EXPECT_NE(out.find("__it0.T_tenant_key = k"), std::string::npos) << out;
  EXPECT_NE(out.find("GROUP BY k, __im0.CT_to_universal"), std::string::npos)
      << out;
  // After o3 the owner is the partial's group key, __g0.
  out = Optimize(q, OptLevel::kO4);
  EXPECT_NE(out.find("__it0.T_tenant_key = __g0"), std::string::npos) << out;
  EXPECT_NE(out.find("GROUP BY __g0, __im0.CT_to_universal"),
            std::string::npos)
      << out;
}

TEST_F(OptimizerTest, O4SharesTenantJoinAcrossFamiliesOfOneOwner) {
  std::string out = Optimize(
      "SELECT cToU(a, E.ttid), pToU(p, E.ttid) FROM E", OptLevel::kInlineOnly);
  EXPECT_NE(out.find("FROM E, Tenant __it0, CurrencyTransform __im0, "
                     "PhoneTransform __im1 WHERE "
                     "__it0.T_tenant_key = E.ttid AND "
                     "__it0.T_currency_key = __im0.CT_currency_key AND "
                     "__it0.T_phone_prefix_key = __im1.PT_phone_prefix_key"),
            std::string::npos)
      << out;
  // Another owner gets its own tenant row.
  out = Optimize("SELECT cToU(a, E.ttid), pToU(p, F.ttid) FROM E, F",
                 OptLevel::kInlineOnly);
  EXPECT_NE(out.find("Tenant __it1"), std::string::npos) << out;
}

TEST_F(OptimizerTest, O4GivesUnreadExistsListsAConstant) {
  const std::string q =
      "SELECT a FROM E WHERE EXISTS (SELECT cFromU(cToU(sal, F.ttid), 0) AS "
      "sal FROM F WHERE F.k = E.k) AND NOT EXISTS (SELECT * FROM G)";
  std::string out = Optimize(q, OptLevel::kO4);
  EXPECT_EQ(out,
            "SELECT a FROM E WHERE EXISTS (SELECT 1 FROM F WHERE F.k = E.k) "
            "AND NOT EXISTS (SELECT 1 FROM G)");
  EXPECT_EQ(Optimize(q, OptLevel::kInlineOnly), out);
  // o3 inlines nothing and keeps the list.
  EXPECT_NE(Optimize(q, OptLevel::kO3).find("SELECT cFromU("),
            std::string::npos);
}

TEST_F(OptimizerTest, O4KeepsExistsListsThatAreRead) {
  // An aggregate returns one row even over no input; GROUP BY, HAVING,
  // DISTINCT and ORDER BY read the list too.
  for (const char* sub :
       {"SELECT MAX(cFromU(cToU(sal, F.ttid), 0)) FROM F WHERE 1 = 0",
        "SELECT F.k FROM F GROUP BY F.k", "SELECT DISTINCT F.k FROM F",
        "SELECT F.k AS x FROM F ORDER BY x"}) {
    std::string out = Optimize(
        std::string("SELECT a FROM E WHERE EXISTS (") + sub + ")",
        OptLevel::kO4);
    EXPECT_EQ(out.find("SELECT 1 "), std::string::npos) << out;
  }
}

TEST_F(OptimizerTest, CanonicalAndO1PassesAreIdentity) {
  std::string q = "SELECT cFromU(cToU(sal, E.ttid), 0) FROM E WHERE x = 1";
  EXPECT_EQ(Optimize(q, OptLevel::kCanonical), Optimize(q, OptLevel::kO1));
}

// -- Table 2 distributability matrix -------------------------------------------

struct DistCase {
  AggKind agg;
  ConversionClass cls;
  bool expected;
};

class DistributabilityTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributabilityTest, MatchesPaperTable2) {
  EXPECT_EQ(AggDistributesOver(GetParam().agg, GetParam().cls),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table2, DistributabilityTest,
    ::testing::Values(
        // COUNT distributes over everything.
        DistCase{AggKind::kCount, ConversionClass::kMultiplicative, true},
        DistCase{AggKind::kCount, ConversionClass::kLinear, true},
        DistCase{AggKind::kCount, ConversionClass::kOrderPreserving, true},
        DistCase{AggKind::kCount, ConversionClass::kEqualityOnly, true},
        // MIN/MAX need order preservation.
        DistCase{AggKind::kMin, ConversionClass::kMultiplicative, true},
        DistCase{AggKind::kMin, ConversionClass::kLinear, true},
        DistCase{AggKind::kMin, ConversionClass::kOrderPreserving, true},
        DistCase{AggKind::kMin, ConversionClass::kEqualityOnly, false},
        DistCase{AggKind::kMax, ConversionClass::kOrderPreserving, true},
        DistCase{AggKind::kMax, ConversionClass::kEqualityOnly, false},
        // SUM/AVG need (at most) linear structure.
        DistCase{AggKind::kSum, ConversionClass::kMultiplicative, true},
        DistCase{AggKind::kSum, ConversionClass::kLinear, true},
        DistCase{AggKind::kSum, ConversionClass::kOrderPreserving, false},
        DistCase{AggKind::kSum, ConversionClass::kEqualityOnly, false},
        DistCase{AggKind::kAvg, ConversionClass::kMultiplicative, true},
        DistCase{AggKind::kAvg, ConversionClass::kLinear, true},
        DistCase{AggKind::kAvg, ConversionClass::kOrderPreserving, false},
        DistCase{AggKind::kAvg, ConversionClass::kEqualityOnly, false}));

}  // namespace
}  // namespace mt
}  // namespace mtbase
