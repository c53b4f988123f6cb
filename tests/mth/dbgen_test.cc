#include "mth/dbgen.h"

#include <gtest/gtest.h>

#include <map>

#include "tests/test_util.h"

namespace mtbase {
namespace mth {
namespace {

MthConfig SmallConfig() {
  MthConfig cfg;
  cfg.scale_factor = 0.001;
  cfg.num_tenants = 4;
  return cfg;
}

TEST(DbgenTest, Cardinalities) {
  MthConfig cfg = SmallConfig();
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(cfg));
  EXPECT_EQ(data.region.size(), 5u);
  EXPECT_EQ(data.nation.size(), 25u);
  EXPECT_EQ(data.supplier.size(), static_cast<size_t>(cfg.SupplierCount()));
  EXPECT_EQ(data.part.size(), static_cast<size_t>(cfg.PartCount()));
  EXPECT_EQ(data.partsupp.size(), 4 * data.part.size());
  EXPECT_EQ(data.customer.size(), static_cast<size_t>(cfg.CustomerCount()));
  EXPECT_EQ(data.orders.size(), static_cast<size_t>(cfg.OrderCount()));
  EXPECT_GE(data.lineitem.size(), data.orders.size());
  EXPECT_EQ(data.customer_tenant.size(), data.customer.size());
  EXPECT_EQ(data.orders_tenant.size(), data.orders.size());
  EXPECT_EQ(data.lineitem_tenant.size(), data.lineitem.size());
}

TEST(DbgenTest, Deterministic) {
  ASSERT_OK_AND_ASSIGN(MthData a, GenerateData(SmallConfig()));
  ASSERT_OK_AND_ASSIGN(MthData b, GenerateData(SmallConfig()));
  ASSERT_EQ(a.lineitem.size(), b.lineitem.size());
  for (size_t i = 0; i < a.lineitem.size(); i += 97) {
    ASSERT_EQ(a.lineitem[i].size(), b.lineitem[i].size());
    for (size_t c = 0; c < a.lineitem[i].size(); ++c) {
      EXPECT_TRUE(a.lineitem[i][c].StructuralEquals(b.lineitem[i][c]))
          << "row " << i << ", column " << c;
    }
  }
}

TEST(DbgenTest, OrdersInheritCustomerTenant) {
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(SmallConfig()));
  for (size_t i = 0; i < data.orders.size(); i += 13) {
    int64_t cust = data.orders[i][1].int_value();
    EXPECT_EQ(data.orders_tenant[i],
              data.customer_tenant[static_cast<size_t>(cust - 1)]);
  }
}

TEST(DbgenTest, LineitemsReferenceValidPartSuppPairs) {
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(SmallConfig()));
  std::set<std::pair<int64_t, int64_t>> ps;
  for (const Row& r : data.partsupp) {
    ps.insert({r[0].int_value(), r[1].int_value()});
  }
  for (size_t i = 0; i < data.lineitem.size(); i += 7) {
    const Row& l = data.lineitem[i];
    EXPECT_TRUE(ps.count({l[1].int_value(), l[2].int_value()}))
        << "lineitem " << i;
  }
}

TEST(DbgenTest, UniformSharesAreBalanced) {
  MthConfig cfg = SmallConfig();
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(cfg));
  std::map<int64_t, int> counts;
  for (int64_t t : data.customer_tenant) counts[t]++;
  ASSERT_EQ(counts.size(), static_cast<size_t>(cfg.num_tenants));
  int min = 1 << 30, max = 0;
  for (auto& [t, c] : counts) {
    min = std::min(min, c);
    max = std::max(max, c);
  }
  EXPECT_LE(max - min, 1);
}

TEST(DbgenTest, ZipfSharesAreSkewed) {
  MthConfig cfg = SmallConfig();
  cfg.num_tenants = 8;
  cfg.distribution = MthConfig::Distribution::kZipf;
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(cfg));
  std::map<int64_t, int> counts;
  for (int64_t t : data.customer_tenant) counts[t]++;
  EXPECT_GT(counts[1], 2 * counts[8]);
}

TEST(DbgenTest, LoadTpchAndValidateConstraints) {
  engine::Database db;
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(SmallConfig()));
  ASSERT_OK(LoadTpch(&db, data));
  // PK uniqueness and FK integrity over the whole baseline.
  ASSERT_OK(db.ValidateConstraints());
  ASSERT_OK_AND_ASSIGN(auto rs, db.Execute("SELECT COUNT(*) FROM lineitem"));
  EXPECT_EQ(rs.rows[0][0].int_value(),
            static_cast<int64_t>(data.lineitem.size()));
}

TEST(DbgenTest, LoadMthStoresTenantFormats) {
  MthConfig cfg = SmallConfig();
  engine::Database db;
  mt::Middleware mw(&db);
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(cfg));
  ASSERT_OK(LoadMth(&db, &mw, data, cfg));
  EXPECT_EQ(mw.tenants().size(), static_cast<size_t>(cfg.num_tenants));
  // ttid column present and filled.
  ASSERT_OK_AND_ASSIGN(
      auto rs, db.Execute("SELECT COUNT(DISTINCT ttid) FROM customer"));
  EXPECT_EQ(rs.rows[0][0].int_value(), cfg.num_tenants);
  // Tenant 1 stores universal values: its rows match the baseline ones.
  ASSERT_OK_AND_ASSIGN(
      rs, db.Execute("SELECT c_custkey, c_acctbal, c_phone FROM customer "
                     "WHERE ttid = 1 ORDER BY c_custkey LIMIT 3"));
  for (const Row& row : rs.rows) {
    const Row& universal =
        data.customer[static_cast<size_t>(row[0].int_value() - 1)];
    EXPECT_TRUE(row[1].StructuralEquals(universal[5]));
    EXPECT_EQ(row[2].string_value(), universal[4].string_value());
  }
}

TEST(DbgenTest, ConversionFunctionsInvertStoredValues) {
  // fromU(toU(stored)) is the identity and toU(stored) equals the universal
  // value for every tenant: Definition 1 on real data.
  MthConfig cfg = SmallConfig();
  engine::Database db;
  mt::Middleware mw(&db);
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(cfg));
  ASSERT_OK(LoadMth(&db, &mw, data, cfg));
  ASSERT_OK_AND_ASSIGN(
      auto rs,
      db.Execute("SELECT COUNT(*) FROM orders WHERE "
                 "currencyFromUniversal(currencyToUniversal(o_totalprice, "
                 "ttid), ttid) <> o_totalprice"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
  ASSERT_OK_AND_ASSIGN(
      rs, db.Execute("SELECT COUNT(*) FROM customer WHERE "
                     "phoneToUniversal(phoneFromUniversal("
                     "phoneToUniversal(c_phone, ttid), ttid), ttid) <> "
                     "phoneToUniversal(c_phone, ttid)"));
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
}

TEST(DbgenTest, QueryPatternsArePresent) {
  MthConfig cfg = SmallConfig();
  cfg.scale_factor = 0.01;  // enough suppliers/parts for the rare patterns
  ASSERT_OK_AND_ASSIGN(MthData data, GenerateData(cfg));
  int green = 0, forest = 0;
  for (const Row& p : data.part) {
    const std::string& name = p[1].string_value();
    if (name.find("green") != std::string::npos) ++green;
    if (name.rfind("forest", 0) == 0) ++forest;
  }
  EXPECT_GT(green, 0);
  EXPECT_GT(forest, 0);
  int complaints = 0;
  for (const Row& s : data.supplier) {
    if (s[6].string_value().find("Complaints") != std::string::npos) {
      ++complaints;
    }
  }
  EXPECT_GT(complaints, 0);
}

}  // namespace
}  // namespace mth
}  // namespace mtbase
