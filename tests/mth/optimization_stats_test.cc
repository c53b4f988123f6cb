// Timing-independent effectiveness checks for the optimization levels,
// asserted through engine ExecStats (DESIGN.md section 5): e.g. aggregation
// distribution reduces conversions from 2N to T+1 (paper section 4.2.2) and
// inlining eliminates UDF calls entirely.
#include <gtest/gtest.h>

#include "mth/runner.h"
#include "tests/test_util.h"

namespace mtbase {
namespace mth {
namespace {

class StatsFixture {
 public:
  static StatsFixture& Get() {
    static StatsFixture f;
    return f;
  }

  MthEnvironment* env() { return env_.get(); }
  mt::Session* session() { return session_.get(); }

  uint64_t LineitemCount() {
    auto rs = env_->mth_db->Execute("SELECT COUNT(*) FROM lineitem");
    return rs.ok() ? static_cast<uint64_t>(rs.value().rows[0][0].int_value())
                   : 0;
  }

 private:
  StatsFixture() {
    MthConfig cfg;
    cfg.scale_factor = 0.002;
    cfg.num_tenants = 5;
    // System C profile: no UDF result caching, so udf_calls counts every
    // conversion evaluation.
    auto r = SetupEnvironment(cfg, engine::DbmsProfile::kSystemC,
                              /*with_baseline=*/false);
    if (!r.ok()) {
      ADD_FAILURE() << r.status().ToString();
      return;
    }
    env_ = std::move(r).value();
    session_ = std::make_unique<mt::Session>(env_->middleware.get(), 1);
    auto st = session_->Execute("SET SCOPE = \"IN ()\"");
    if (!st.ok()) ADD_FAILURE() << st.status().ToString();
  }

  std::unique_ptr<MthEnvironment> env_;
  std::unique_ptr<mt::Session> session_;
};

QueryRun MustRun(int query, mt::OptLevel level) {
  auto& f = StatsFixture::Get();
  MthQuery q = GetMthQuery(query, f.env()->config.scale_factor);
  auto run = RunMthQuery(f.session(), q.sql, level);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.ok() ? std::move(run).value() : QueryRun{};
}

TEST(OptimizationStatsTest, CanonicalQ6ConvertsTwicePerQualifyingRow) {
  QueryRun run = MustRun(6, mt::OptLevel::kCanonical);
  // Q6 converts l_extendedprice (two UDF calls) for every qualifying row;
  // the result row count is 1, so compare against the aggregate input:
  // thousands of scanned rows, a few hundred qualify.
  EXPECT_GT(run.stats.udf_calls, 100u);
  EXPECT_EQ(run.stats.udf_calls % 2, 0u);
}

TEST(OptimizationStatsTest, O3ReducesConversionsToTenantsPlusOne) {
  auto& f = StatsFixture::Get();
  QueryRun run = MustRun(6, mt::OptLevel::kO3);
  // Per paper section 4.2.2: T partial conversions + 1 final conversion.
  // (o2 already moved the predicate conversions to constants: 2 calls per
  // tenant for the date-range constants; allow that slack.)
  uint64_t t = static_cast<uint64_t>(f.env()->config.num_tenants);
  EXPECT_LE(run.stats.udf_calls, 4 * t + 2);
  EXPECT_GE(run.stats.udf_calls, t);
}

TEST(OptimizationStatsTest, O4EliminatesUdfCallsEntirely) {
  QueryRun run = MustRun(6, mt::OptLevel::kO4);
  EXPECT_EQ(run.stats.udf_calls, 0u);
  run = MustRun(1, mt::OptLevel::kO4);
  EXPECT_EQ(run.stats.udf_calls, 0u);
  run = MustRun(22, mt::OptLevel::kO4);
  EXPECT_EQ(run.stats.udf_calls, 0u);
}

TEST(OptimizationStatsTest, InlineOnlyAlsoEliminatesUdfCalls) {
  QueryRun run = MustRun(1, mt::OptLevel::kInlineOnly);
  EXPECT_EQ(run.stats.udf_calls, 0u);
}

TEST(OptimizationStatsTest, O4JoinsConversionDataOnlyWhereRead) {
  // Q4 and Q21 convert only inside EXISTS select lists nobody reads: o4
  // joins no meta table for them, so it joins exactly o3's rows.
  for (int q : {4, 21}) {
    uint64_t o3 = MustRun(q, mt::OptLevel::kO3).stats.rows_joined;
    uint64_t o4 = MustRun(q, mt::OptLevel::kO4).stats.rows_joined;
    EXPECT_EQ(o4, o3) << "Q" << q;
  }
  // Q1 and Q6 convert per-tenant partial aggregates: o4 joins one tenant
  // and one meta row per (group, tenant) partial, plus one row per
  // client-side lookup sub-query.
  auto& f = StatsFixture::Get();
  uint64_t t = static_cast<uint64_t>(f.env()->config.num_tenants);
  for (int q : {1, 6}) {
    QueryRun run = MustRun(q, mt::OptLevel::kO4);
    uint64_t lookups = 0;
    for (size_t at = run.sql.find("FROM Tenant, "); at != std::string::npos;
         at = run.sql.find("FROM Tenant, ", at + 1)) {
      ++lookups;
    }
    EXPECT_GT(lookups, 0u) << run.sql;
    uint64_t partials = run.result.rows.size() * t;
    EXPECT_LE(run.stats.rows_joined, 2 * partials + lookups)
        << "Q" << q << ": " << run.sql;
  }
}

TEST(OptimizationStatsTest, MonotoneImprovementOnQ1) {
  // Conversion work shrinks monotonically across the levels of Table 6.
  uint64_t canonical = MustRun(1, mt::OptLevel::kCanonical).stats.udf_calls;
  uint64_t o3 = MustRun(1, mt::OptLevel::kO3).stats.udf_calls;
  uint64_t o4 = MustRun(1, mt::OptLevel::kO4).stats.udf_calls;
  EXPECT_GT(canonical, o3);
  EXPECT_GT(o3, o4);
}

TEST(OptimizationStatsTest, OwnDataScopeNeedsNoConversions) {
  // o1: D = {C} drops conversions entirely (paper Listing 13).
  auto& f = StatsFixture::Get();
  mt::Session own(f.env()->middleware.get(), 1);  // default scope {1}
  MthQuery q = GetMthQuery(6, f.env()->config.scale_factor);
  ASSERT_OK_AND_ASSIGN(QueryRun run,
                       RunMthQuery(&own, q.sql, mt::OptLevel::kO1));
  EXPECT_EQ(run.stats.total_udf_invocations(), 0u);
  // Canonical still converts even for D = {C}.
  ASSERT_OK_AND_ASSIGN(run, RunMthQuery(&own, q.sql, mt::OptLevel::kCanonical));
  EXPECT_GT(run.stats.total_udf_invocations(), 0u);
}

TEST(OptimizationStatsTest, RewrittenSqlShapesMatchLevels) {
  QueryRun canonical = MustRun(6, mt::OptLevel::kCanonical);
  EXPECT_NE(canonical.sql.find("currencyToUniversal"), std::string::npos);
  EXPECT_NE(canonical.sql.find("ttid IN ("), std::string::npos);
  QueryRun o1 = MustRun(6, mt::OptLevel::kO1);
  // D = all tenants: no D-filters at o1+.
  EXPECT_EQ(o1.sql.find("ttid IN ("), std::string::npos) << o1.sql;
  QueryRun o4 = MustRun(6, mt::OptLevel::kO4);
  EXPECT_EQ(o4.sql.find("currencyToUniversal"), std::string::npos) << o4.sql;
  EXPECT_NE(o4.sql.find("CurrencyTransform"), std::string::npos) << o4.sql;
}

TEST(OptimizationStatsTest, PostgresProfileCachesConstantConversions) {
  // On the PostgreSQL profile, o2's constant-side conversions hit the UDF
  // cache after one execution per tenant — the reason o2 helps there but not
  // on System C (paper section 6 / Appendix C).
  MthConfig cfg;
  cfg.scale_factor = 0.002;
  cfg.num_tenants = 5;
  auto env_r =
      SetupEnvironment(cfg, engine::DbmsProfile::kPostgres, false);
  ASSERT_OK(env_r);
  auto env = std::move(env_r).value();
  mt::Session session(env->middleware.get(), 1);
  ASSERT_OK(session.Execute("SET SCOPE = \"IN ()\"").status());
  // A convertible attribute in the predicate: o2 converts the constant
  // instead, and the PostgreSQL UDF cache answers all repeated
  // (constant, owner) argument pairs after one execution per tenant.
  ASSERT_OK_AND_ASSIGN(
      QueryRun run,
      RunMthQuery(&session, "SELECT COUNT(*) FROM customer WHERE c_acctbal > 1000",
                  mt::OptLevel::kO2));
  EXPECT_LE(run.stats.udf_calls, 2u * cfg.num_tenants + 2u);
  EXPECT_GT(run.stats.udf_cache_hits, run.stats.udf_calls);
}

// The prepared-statement acceptance property: re-executing a prepared MT-H
// query under an unchanged SCOPE performs zero parser, rewriter and planner
// invocations — compilation is O(1) in the number of executions, asserted
// through ExecStats rather than wall-clock.
TEST(PreparedMthTest, ReExecutionIsCompilationFree) {
  auto& f = StatsFixture::Get();
  ASSERT_NE(f.env(), nullptr);
  for (int qn : {1, 6, 22}) {
    MthQuery q = GetMthQuery(qn, f.env()->config.scale_factor);
    ASSERT_OK_AND_ASSIGN(PreparedMthQuery prepared,
                         PrepareMthQuery(f.session(), q.sql, mt::OptLevel::kO4));
    ASSERT_OK_AND_ASSIGN(QueryRun first, RunPrepared(&prepared));
    engine::StatsScope scope(f.env()->mth_db->stats());
    ASSERT_OK_AND_ASSIGN(QueryRun second, RunPrepared(&prepared));
    ASSERT_OK_AND_ASSIGN(QueryRun third, RunPrepared(&prepared));
    engine::ExecStats d = scope.Delta();
    EXPECT_EQ(d.statements_parsed, 0u) << q.name;
    EXPECT_EQ(d.statements_rewritten, 0u) << q.name;
    EXPECT_EQ(d.statements_planned, 0u) << q.name;
    EXPECT_EQ(d.prepare_count, 0u) << q.name;
    EXPECT_EQ(d.rewrite_cache_hits, 2u) << q.name;
    EXPECT_GE(d.plan_cache_hits, 2u) << q.name;
    // Cached re-execution returns the same rows as the first run.
    std::string why;
    EXPECT_TRUE(ResultsEqual(first.result, second.result, &why)) << why;
    EXPECT_TRUE(ResultsEqual(first.result, third.result, &why)) << why;
  }
}

// Every level names its result columns as canonical does. o3 and o4 read a
// grouped column through the partial aggregate's `__gN` alias and must give
// the column its own name back (MT-H Q1's l_returnflag, Q3's l_orderkey).
TEST(OptimizationStatsTest, EveryLevelNamesColumnsLikeCanonical) {
  MthConfig cfg;
  cfg.scale_factor = 0.001;
  cfg.num_tenants = 3;
  ASSERT_OK_AND_ASSIGN(auto env,
                       SetupEnvironment(cfg, engine::DbmsProfile::kPostgres,
                                        /*with_baseline=*/false));
  mt::Session session = env->OpenSession(1);
  ASSERT_OK(session.Execute("SET SCOPE = \"IN ()\"").status());
  for (int query = 1; query <= 22; ++query) {
    const std::string sql = GetMthQuery(query, cfg.scale_factor).sql;
    ASSERT_OK_AND_ASSIGN(QueryRun canonical,
                         RunMthQuery(&session, sql, mt::OptLevel::kCanonical));
    ASSERT_FALSE(canonical.result.column_names.empty()) << "Q" << query;
    for (mt::OptLevel level :
         {mt::OptLevel::kO1, mt::OptLevel::kO2, mt::OptLevel::kO3,
          mt::OptLevel::kO4, mt::OptLevel::kInlineOnly}) {
      ASSERT_OK_AND_ASSIGN(QueryRun run, RunMthQuery(&session, sql, level));
      EXPECT_EQ(run.result.column_names, canonical.result.column_names)
          << "Q" << query << " at " << mt::OptLevelName(level);
    }
  }
}

}  // namespace
}  // namespace mth
}  // namespace mtbase
