// Tenant writes cost the rows they touch: an own-tenant UPDATE or DELETE of
// the MT-H serving shape (T = 12 Zipf, customer hash-partitioned by ttid into
// 8 partitions) plans its target as a pruned scan and publishes a version
// that copies at most one chunk, at any table size. Counters, not time:
// dml_rows_examined equals the rows_scanned of the SELECT with the same
// WHERE (one partition) and dml_rows_copied stays within kChunkRows.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/catalog.h"
#include "mth/runner.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mth {
namespace {

class DmlTargetTest : public ::testing::TestWithParam<double> {
 protected:
  void SetUp() override {
    MthConfig cfg;
    cfg.scale_factor = GetParam();
    cfg.num_tenants = 12;
    cfg.distribution = MthConfig::Distribution::kZipf;
    cfg.partitions = 8;
    ASSERT_OK_AND_ASSIGN(env_,
                         SetupEnvironment(cfg, engine::DbmsProfile::kPostgres,
                                          /*with_baseline=*/false));
    env_->middleware->SetMaxThreads(1);
  }

  /// A customer key tenant `t` owns.
  int64_t OwnedKey(mt::Session* s) {
    auto rs = s->Execute("SELECT MIN(c_custkey) FROM customer");
    EXPECT_OK(rs.status());
    return rs.ok() ? rs.value().rows[0][0].int_value() : 0;
  }

  std::unique_ptr<MthEnvironment> env_;
};

TEST_P(DmlTargetTest, SingleRowUpdateExaminesOnePartitionAndCopiesOneChunk) {
  const engine::Table* customer =
      env_->mth_db->catalog()->FindTable("customer");
  ASSERT_NE(customer, nullptr);
  const size_t total = customer->row_count();
  for (int64_t tenant : {1, 2, 7}) {
    SCOPED_TRACE("tenant " + std::to_string(tenant));
    mt::Session s(env_->middleware.get(), tenant);
    const std::string where = " WHERE c_custkey = " +
                              std::to_string(OwnedKey(&s));
    engine::StatsScope select(env_->mth_db->stats());
    ASSERT_OK_AND_ASSIGN(auto before,
                         s.Execute("SELECT c_acctbal FROM customer" + where));
    ASSERT_EQ(before.rows.size(), 1u);
    const uint64_t scanned = select.Delta().rows_scanned;
    EXPECT_LT(scanned, total);  // one partition, not the shared table

    engine::StatsScope update(env_->mth_db->stats());
    ASSERT_OK_AND_ASSIGN(
        auto n, s.Execute("UPDATE customer SET c_acctbal = c_acctbal + 1.00" +
                          where));
    EXPECT_EQ(n.rows[0][0].int_value(), 1);
    const engine::ExecStats d = update.Delta();
    EXPECT_EQ(d.dml_rows_examined, scanned);
    EXPECT_GT(d.dml_rows_copied, 0u);
    EXPECT_LE(d.dml_rows_copied, engine::kChunkRows);
    EXPECT_GT(d.partitions_pruned, 0u);

    ASSERT_OK_AND_ASSIGN(auto after,
                         s.Execute("SELECT c_acctbal - 1.00 FROM customer" +
                                   where));
    EXPECT_EQ(CanonRows(before.rows), CanonRows(after.rows));
    EXPECT_EQ(customer->row_count(), total);
  }
}

TEST_P(DmlTargetTest, ExplainRendersThePrunedTargetAndVerifiesIt) {
  mt::Session s(env_->middleware.get(), 3);
  const std::string update = "UPDATE customer SET c_acctbal = c_acctbal + "
                             "1.00 WHERE c_custkey = " +
                             std::to_string(OwnedKey(&s));
  ASSERT_OK_AND_ASSIGN(std::string plan, s.Explain(update, /*verify=*/true));
  EXPECT_EQ(plan,
            "Update customer\n"
            "  Scan customer (filtered) [partitions: 7/8 pruned]\n"
            "[verify: ok]\n");
  ASSERT_OK_AND_ASSIGN(
      plan, s.Explain("DELETE FROM customer WHERE c_custkey < 0", true));
  EXPECT_EQ(plan,
            "Delete customer\n"
            "  Scan customer (filtered) [partitions: 7/8 pruned]\n"
            "[verify: ok]\n");
}

INSTANTIATE_TEST_SUITE_P(ScaleFactors, DmlTargetTest,
                         ::testing::Values(0.002, 0.02));

}  // namespace
}  // namespace mth
}  // namespace mtbase
