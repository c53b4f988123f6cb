// Tenant-aware physical design at the engine level: ttid hash/list
// partitioning with planner pruning, ordered ttid-leading indexes with
// index-scan plans, EXPLAIN annotations, ExecStats counters, prepared-plan
// invalidation on physical DDL, atomic multi-row DML against derived
// physical state, and the verifier's partition-set-subset proof (with the
// widening mutator as the negative case).
#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/catalog.h"
#include "engine/database.h"
#include "engine/explain.h"
#include "engine/verify/mutators.h"
#include "engine/verify/verifier.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace mtbase {
namespace engine {
namespace {

constexpr int kParts = 4;

/// Two copies of the same data: `part` is hash-partitioned on ttid and
/// carries a ttid-leading index, `flat` has no physical design. Every
/// positive test proves byte-identity between the two.
class PhysicalDesignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.ExecuteScript(
        "CREATE TABLE part (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
        "v INTEGER NOT NULL) PARTITION BY HASH (ttid) PARTITIONS " +
        std::to_string(kParts) +
        ";"
        "CREATE TABLE flat (ttid INTEGER NOT NULL, id INTEGER NOT NULL, "
        "v INTEGER NOT NULL);"
        "CREATE INDEX part_ttid ON part (ttid, id)"));
    for (int64_t ttid = 1; ttid <= 5; ++ttid) {
      for (int64_t i = 0; i < 6; ++i) {
        std::string row = "(" + std::to_string(ttid) + ", " +
                          std::to_string(ttid * 100 + i) + ", " +
                          std::to_string((i * 37 + ttid) % 11) + ")";
        ASSERT_OK(db_.Execute("INSERT INTO part VALUES " + row).status());
        ASSERT_OK(db_.Execute("INSERT INTO flat VALUES " + row).status());
      }
    }
  }

  std::string Explain(const std::string& query) {
    auto sel = sql::ParseSelect(query);
    EXPECT_TRUE(sel.ok());
    auto r = ExplainSelect(db_.catalog(), db_.udfs(), *sel.value(),
                           db_.planner_options());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : "";
  }

  /// Run `query` against both copies (swap the table name) and assert
  /// byte-identical results; returns the partitioned run's stats delta.
  ExecStats AssertSameAsFlat(const std::string& query_on_part) {
    StatsScope scope(db_.stats());
    auto part = db_.Execute(query_on_part);
    EXPECT_OK(part.status());
    ExecStats delta = scope.Delta();
    std::string flat_q = query_on_part;
    size_t at = flat_q.find("FROM part");
    EXPECT_NE(at, std::string::npos) << query_on_part;
    flat_q.replace(at, 9, "FROM flat");
    auto flat = db_.Execute(flat_q);
    EXPECT_OK(flat.status());
    if (part.ok() && flat.ok()) {
      EXPECT_EQ(CanonRows(part.value().rows), CanonRows(flat.value().rows))
          << query_on_part;
    }
    return delta;
  }

  Database db_;
};

// -- storage ---------------------------------------------------------------

TEST_F(PhysicalDesignTest, PartitionRowsCoverEveryRowExactlyOnce) {
  Table* t = db_.catalog()->FindTable("part");
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->partition().partitioned());
  EXPECT_EQ(t->partition().Count(), kParts);
  const auto version = t->Snapshot();
  std::vector<bool> seen(version->rows().size(), false);
  for (uint32_t p = 0; p < static_cast<uint32_t>(kParts); ++p) {
    std::vector<uint32_t> ids;
    version->AppendPartitionRows({p}, &ids);
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (uint32_t id : ids) {
      ASSERT_LT(id, seen.size());
      EXPECT_FALSE(seen[id]) << "row " << id << " in two partitions";
      seen[id] = true;
      // Membership agrees with the routing function.
      EXPECT_EQ(t->partition().RouteValue(version->rows()[id][0]),
                static_cast<int>(p));
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(PhysicalDesignTest, ChunksRouteMoreThan256Partitions) {
  ASSERT_OK(db_.Execute("CREATE TABLE wide (k INTEGER NOT NULL, v INTEGER) "
                        "PARTITION BY HASH (k) PARTITIONS 300")
                .status());
  std::string script;
  for (int k = 0; k < 1000; ++k) {
    script += "INSERT INTO wide VALUES (" + std::to_string(k) + ", " +
              std::to_string(k * 3) + ");";
  }
  ASSERT_OK(db_.ExecuteScript(script));
  for (int k : {0, 257, 299, 611, 999}) {
    ASSERT_OK_AND_ASSIGN(
        auto rs,
        db_.Execute("SELECT v FROM wide WHERE k = " + std::to_string(k)));
    ASSERT_EQ(rs.rows.size(), 1u) << k;
    EXPECT_EQ(rs.rows[0][0].int_value(), k * 3);
  }
}

// DELETE merges a chunk it leaves under half full with a neighbour, so a
// churn of key deletes and re-inserts over interleaved rows keeps every two
// neighbouring chunks at kChunkRows rows or more (at most
// 2 * rows / kChunkRows + 1 chunks), and loses no row doing it.
TEST_F(PhysicalDesignTest, DeleteChurnKeepsChunksFilled) {
  ASSERT_OK(db_.Execute("CREATE TABLE churn (k INTEGER NOT NULL, v INTEGER) "
                        "PARTITION BY HASH (k) PARTITIONS 4")
                .status());
  Table* t = db_.catalog()->FindTable("churn");
  ASSERT_NE(t, nullptr);
  std::vector<int64_t> per_key(8, 0);
  std::string script;
  for (int i = 0; i < 800; ++i) {  // eight keys, interleaved row by row
    script += "INSERT INTO churn VALUES (" + std::to_string(i % 8) + ", " +
              std::to_string(i) + ");";
    ++per_key[static_cast<size_t>(i % 8)];
  }
  ASSERT_OK(db_.ExecuteScript(script));
  for (int round = 0; round < 32; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const size_t k = static_cast<size_t>(round % 8);
    ASSERT_OK_AND_ASSIGN(
        auto deleted,
        db_.Execute("DELETE FROM churn WHERE k = " + std::to_string(k)));
    EXPECT_EQ(deleted.rows[0][0].int_value(), per_key[k]);
    per_key[k] = 0;
    if (round >= 4) {  // re-insert a key deleted four rounds ago
      const size_t back = static_cast<size_t>((round - 4) % 8);
      std::string insert = "INSERT INTO churn VALUES ";
      for (int i = 0; i < 30; ++i) {
        insert += std::string(i == 0 ? "(" : ", (") + std::to_string(back) +
                  ", " + std::to_string(i) + ")";
      }
      ASSERT_OK(db_.Execute(insert).status());
      per_key[back] += 30;
    }
    const auto version = t->Snapshot();
    EXPECT_LE(version->chunks().size(),
              2 * version->rows().size() / kChunkRows + 1);
    ASSERT_OK_AND_ASSIGN(
        auto counts,
        db_.Execute("SELECT k, COUNT(*) FROM churn GROUP BY k ORDER BY k"));
    std::vector<int64_t> got(8, 0);
    for (const auto& row : counts.rows) {
      got[static_cast<size_t>(row[0].int_value())] = row[1].int_value();
    }
    EXPECT_EQ(got, per_key);
  }
}

TEST_F(PhysicalDesignTest, ListPartitioningRoutesOverflowToLastPartition) {
  ASSERT_OK(db_.Execute(
      "CREATE TABLE lp (k INTEGER NOT NULL) "
      "PARTITION BY LIST (k) (VALUES (1, 2), VALUES (3))").status());
  Table* t = db_.catalog()->FindTable("lp");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->partition().Count(), 3);  // 2 groups + overflow
  EXPECT_EQ(t->partition().RouteInt(2), 0);
  EXPECT_EQ(t->partition().RouteInt(3), 1);
  EXPECT_EQ(t->partition().RouteInt(99), 2);
  ASSERT_OK(db_.ExecuteScript(
      "INSERT INTO lp VALUES (1); INSERT INTO lp VALUES (3); "
      "INSERT INTO lp VALUES (42)"));
  const auto version = t->Snapshot();
  for (uint32_t p = 0; p < 3; ++p) {
    std::vector<uint32_t> ids;
    version->AppendPartitionRows({p}, &ids);
    EXPECT_EQ(ids, std::vector<uint32_t>{p});
  }
}

TEST_F(PhysicalDesignTest, IndexOrderIsSortedWithInsertionOrderTieBreak) {
  Table* t = db_.catalog()->FindTable("part");
  ASSERT_NE(t, nullptr);
  const TableIndex* ix = t->FindIndex("part_ttid");
  ASSERT_NE(ix, nullptr);
  const auto version = t->Snapshot();
  const auto& order = version->IndexOrder(*ix);
  ASSERT_EQ(order.size(), version->rows().size());
  for (size_t i = 1; i < order.size(); ++i) {
    const RowView a = version->rows()[order[i - 1]];
    const RowView b = version->rows()[order[i]];
    int c = IndexKeyCompare(a[0], b[0]);
    if (c == 0) c = IndexKeyCompare(a[1], b[1]);
    if (c == 0) {
      EXPECT_LT(order[i - 1], order[i]);  // stable tie-break
    } else {
      EXPECT_LT(c, 0);
    }
  }
}

// -- planner + executor ----------------------------------------------------

TEST_F(PhysicalDesignTest, EqualityPrunesToOnePartition) {
  ExecStats d = AssertSameAsFlat(
      "SELECT id, v FROM part WHERE ttid = 3 ORDER BY id");
  EXPECT_EQ(d.partitions_pruned, static_cast<uint64_t>(kParts - 1));
  EXPECT_EQ(d.index_scans, 0u);  // pruning wins over the index
  EXPECT_PLAN_SHAPE(
      Explain("SELECT id, v FROM part WHERE ttid = 3 ORDER BY id"),
      {"*Sort*",
       "*Scan part (filtered) [partitions: " + std::to_string(kParts - 1) +
           "/" + std::to_string(kParts) + " pruned]*"});
}

TEST_F(PhysicalDesignTest, InListPrunesToTheKeySetImage) {
  StatsScope scope(db_.stats());
  AssertSameAsFlat("SELECT id FROM part WHERE ttid IN (1, 4) ORDER BY id");
  // Two keys map to at most two partitions; at least kParts - 2 are pruned.
  EXPECT_GE(scope.Delta().partitions_pruned,
            static_cast<uint64_t>(kParts - 2));
}

TEST_F(PhysicalDesignTest, ResidualConjunctsSurvivePruning) {
  // The ttid conjunct prunes; v = 5 must still filter candidate rows.
  ExecStats d = AssertSameAsFlat(
      "SELECT id FROM part WHERE ttid = 2 AND v > 4 ORDER BY id");
  EXPECT_EQ(d.partitions_pruned, static_cast<uint64_t>(kParts - 1));
}

TEST_F(PhysicalDesignTest, IndexScanServesNonPartitionEquality) {
  ASSERT_OK(db_.Execute("CREATE INDEX part_id ON part (id)").status());
  ExecStats d = AssertSameAsFlat("SELECT v FROM part WHERE id = 304");
  EXPECT_EQ(d.index_scans, 1u);
  EXPECT_GT(d.index_rows_skipped, 0u);
  EXPECT_PLAN_SHAPE(Explain("SELECT v FROM part WHERE id = 304"),
                    {"*IndexScan part (filtered) [index scan: part_id, "
                     "id = 304]*"});
}

TEST_F(PhysicalDesignTest, IndexScanServesInListOnUnpartitionedTable) {
  ASSERT_OK(db_.Execute("CREATE INDEX flat_ttid ON flat (ttid)").status());
  StatsScope scope(db_.stats());
  ASSERT_OK_AND_ASSIGN(
      auto rs,
      db_.Execute("SELECT id FROM flat WHERE ttid IN (2, 4) ORDER BY id"));
  EXPECT_EQ(rs.rows.size(), 12u);
  EXPECT_EQ(scope.Delta().index_scans, 1u);
  EXPECT_PLAN_SHAPE(
      Explain("SELECT id FROM flat WHERE ttid IN (2, 4) ORDER BY id"),
      {"*IndexScan flat (filtered) [index scan: flat_ttid, "
       "ttid IN (2, 4)]*"});
}

TEST_F(PhysicalDesignTest, AccessPathsOffKeepsFullScans) {
  PlannerOptions opts = db_.planner_options();
  opts.physical_access_paths = false;
  db_.set_planner_options(opts);
  ExecStats d = AssertSameAsFlat("SELECT id FROM part WHERE ttid = 3");
  EXPECT_EQ(d.partitions_pruned, 0u);
  EXPECT_EQ(d.index_scans, 0u);
  std::string plan = Explain("SELECT id FROM part WHERE ttid = 3");
  EXPECT_EQ(plan.find("[partitions:"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("IndexScan"), std::string::npos) << plan;
}

TEST_F(PhysicalDesignTest, DroppedIndexFallsBackToFullScan) {
  ASSERT_OK(db_.Execute("CREATE INDEX flat_id ON flat (id)").status());
  {
    StatsScope scope(db_.stats());
    ASSERT_OK(db_.Execute("SELECT v FROM flat WHERE id = 104").status());
    EXPECT_EQ(scope.Delta().index_scans, 1u);
  }
  ASSERT_OK(db_.Execute("DROP INDEX flat_id").status());
  StatsScope scope(db_.stats());
  ASSERT_OK(db_.Execute("SELECT v FROM flat WHERE id = 104").status());
  EXPECT_EQ(scope.Delta().index_scans, 0u);
}

TEST_F(PhysicalDesignTest, CreateIndexInvalidatesPreparedPlans) {
  ASSERT_OK_AND_ASSIGN(PreparedPlan prep,
                       db_.Prepare("SELECT v FROM flat WHERE id = 203"));
  {
    StatsScope scope(db_.stats());
    ASSERT_OK(prep.Execute().status());
    EXPECT_EQ(scope.Delta().index_scans, 0u);  // compiled without an index
  }
  ASSERT_OK(db_.Execute("CREATE INDEX flat_id ON flat (id)").status());
  StatsScope scope(db_.stats());
  ASSERT_OK_AND_ASSIGN(auto rs, prep.Execute());
  // The catalog version moved: the handle recompiled and found the index.
  EXPECT_EQ(scope.Delta().index_scans, 1u);
  EXPECT_EQ(rs.rows.size(), 1u);
}

// -- DML against derived physical state ------------------------------------

TEST_F(PhysicalDesignTest, AbortedMultiRowInsertLeavesTableUnchanged) {
  Table* t = db_.catalog()->FindTable("part");
  const size_t before = t->row_count();
  const uint64_t version = t->data_version();
  // Row 1 is fine; row 2 violates NOT NULL. Nothing may be applied.
  auto r = db_.Execute("INSERT INTO part VALUES (1, 900, 1), (NULL, 901, 2)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(t->row_count(), before);
  EXPECT_EQ(t->data_version(), version);
  // Derived physical state is trivially consistent: same coverage as before.
  const auto pinned = t->Snapshot();
  std::vector<uint32_t> all_parts(kParts);
  std::iota(all_parts.begin(), all_parts.end(), 0u);
  std::vector<uint32_t> covered;
  pinned->AppendPartitionRows(all_parts, &covered);
  EXPECT_EQ(covered.size(), before);
  ASSERT_OK_AND_ASSIGN(auto rs,
                       db_.Execute("SELECT id FROM part WHERE id = 900"));
  EXPECT_TRUE(rs.rows.empty());
}

TEST_F(PhysicalDesignTest, UpdateMovesRowsAcrossPartitions) {
  // Move tenant 5's rows to tenant 1: pruned scans must see them under the
  // new key and not under the old one (stale partition lists would fail
  // byte-identity against the flat copy).
  ASSERT_OK(db_.Execute("UPDATE part SET ttid = 1 WHERE ttid = 5").status());
  ASSERT_OK(db_.Execute("UPDATE flat SET ttid = 1 WHERE ttid = 5").status());
  AssertSameAsFlat("SELECT id, v FROM part WHERE ttid = 1 ORDER BY id");
  ASSERT_OK_AND_ASSIGN(auto gone,
                       db_.Execute("SELECT id FROM part WHERE ttid = 5"));
  EXPECT_TRUE(gone.rows.empty());
  ASSERT_OK(db_.Execute("DELETE FROM part WHERE ttid = 1").status());
  ASSERT_OK(db_.Execute("DELETE FROM flat WHERE ttid = 1").status());
  AssertSameAsFlat("SELECT id, v FROM part WHERE ttid IN (1, 2) ORDER BY id");
}

// -- verifier ---------------------------------------------------------------

verify::VerifyContext TenantCtx() {
  verify::VerifyContext ctx;
  ctx.check_tenant = true;
  ctx.tenant_tables = {"part"};
  ctx.expected_tenants = {3};
  return ctx;
}

TEST_F(PhysicalDesignTest, VerifierAcceptsPrunedScanInsideTenantImage) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  StatsScope scope(db_.stats());
  ASSERT_OK_AND_ASSIGN(
      auto rs, db_.Execute("SELECT id FROM part WHERE ttid = 3 ORDER BY id"));
  EXPECT_EQ(rs.rows.size(), 6u);
  EXPECT_GT(scope.Delta().plans_verified, 0u);
  EXPECT_EQ(scope.Delta().verify_violations, 0u);
}

TEST_F(PhysicalDesignTest, VerifierRefusesWidenedPartitionSet) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  db_.set_plan_mutation_hook_for_testing(
      [](Plan* plan) { verify::WidenPartitionPruning(plan); });
  auto r = db_.Execute("SELECT id FROM part WHERE ttid = 3");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("PARTITION_SET_MISMATCH"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(PhysicalDesignTest, VerifierRefusesOutOfRangePartition) {
  ScopedVerifyEnv env("1");
  db_.set_verify_context(TenantCtx());
  db_.set_plan_mutation_hook_for_testing([](Plan* plan) {
    Plan* node = plan;
    while (node != nullptr && node->kind != Plan::Kind::kScan) {
      node = node->left.get();
    }
    if (node != nullptr && node->pruned) {
      node->partitions = {static_cast<uint32_t>(kParts)};  // one past the end
    }
  });
  auto r = db_.Execute("SELECT id FROM part WHERE ttid = 3");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("PARTITION_SET_MISMATCH"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(PhysicalDesignTest, VerifierRefusesParallelMarkedIndexScan) {
  ScopedVerifyEnv env("1");
  ASSERT_OK(db_.Execute("CREATE INDEX flat_id ON flat (id)").status());
  db_.set_plan_mutation_hook_for_testing([](Plan* plan) {
    Plan* node = plan;
    while (node != nullptr && node->kind != Plan::Kind::kIndexScan) {
      node = node->left.get();
    }
    if (node != nullptr) node->parallel_safe = true;
  });
  auto r = db_.Execute("SELECT v FROM flat WHERE id = 104");
  db_.set_plan_mutation_hook_for_testing(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("PARALLEL_UNSAFE_SUBPLAN"),
            std::string::npos)
      << r.status().ToString();
}

// -- DDL validation ---------------------------------------------------------

TEST_F(PhysicalDesignTest, PartitionColumnMustExistAndBeInteger) {
  EXPECT_FALSE(db_.Execute("CREATE TABLE bad1 (a INTEGER) "
                           "PARTITION BY HASH (missing) PARTITIONS 4")
                   .ok());
  EXPECT_FALSE(db_.Execute("CREATE TABLE bad2 (a VARCHAR(8)) "
                           "PARTITION BY HASH (a) PARTITIONS 4")
                   .ok());
}

TEST_F(PhysicalDesignTest, IndexDdlValidatesNamesAndColumns) {
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix ON missing (a)").ok());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix ON flat (missing)").ok());
  ASSERT_OK(db_.Execute("CREATE INDEX ix ON flat (id)").status());
  EXPECT_FALSE(db_.Execute("CREATE INDEX ix ON flat (v)").ok());  // duplicate
  EXPECT_FALSE(db_.Execute("DROP INDEX missing").ok());
  ASSERT_OK(db_.Execute("DROP INDEX ix").status());
  // Dropping the table unregisters its indexes' names.
  ASSERT_OK(db_.Execute("CREATE INDEX ix2 ON flat (id)").status());
  ASSERT_OK(db_.Execute("DROP TABLE flat").status());
  EXPECT_FALSE(db_.Execute("DROP INDEX ix2").ok());
}

}  // namespace
}  // namespace engine
}  // namespace mtbase
